//pass: typecheck
//want: undefined variable "x"
// A declaration's initialiser resolves before the declared name is
// bound: with no outer "x" there is nothing for it to read.
int x = x + 1;
return x;
