//pass: termination
//want: counter "i" is reassigned inside the loop body
// The body is a scope of its own, so this "i" is a new variable — but
// the bound is inferred by name, and the verifier stays conservative.
int n = 0;
for (int i = 0; i < 3; i++) {
	int i = 10;
	n += i;
}
return n;
