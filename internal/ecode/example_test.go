package ecode_test

import (
	"fmt"

	"sysprof/internal/ecode"
)

// Verify a small analyzer with persistent state against the schema of
// the record it reads, lower it to closures, and run it per event.
func ExampleProgram_CompileVerified() {
	prog, err := ecode.Compile(`
		static int big = 0;
		if (ev.bytes > 1000) { big++; }
		return big;
	`)
	if err != nil {
		fmt.Println("compile:", err)
		return
	}
	compiled, verdict, err := prog.CompileVerified(ecode.VerifyEnv{
		Name:    "bigpackets",
		Records: map[string]ecode.RecordSchema{"ev": {"bytes": ecode.TInt}},
	})
	if err != nil {
		fmt.Println(verdict.Render())
		return
	}
	inst, err := compiled.NewInstance(nil)
	if err != nil {
		fmt.Println("instantiate:", err)
		return
	}
	for _, bytes := range []int64{500, 1500, 2000, 100} {
		out, err := inst.Run(map[string]ecode.Value{
			"ev": ecode.MapRecord{"bytes": bytes},
		})
		if err != nil {
			fmt.Println("run:", err)
			return
		}
		fmt.Println(out)
	}
	// Output:
	// 0
	// 1
	// 2
	// 2
}

// Host programs can expose custom builtins, like SysProf's emit(): the
// verifier needs the signature, the instance the implementation.
func ExampleCompiled_NewInstance() {
	compiled, _, err := ecode.MustCompile(`emit("alerts", 42); return 0;`).CompileVerified(ecode.VerifyEnv{
		Builtins: map[string]ecode.BuiltinSig{
			"emit": {Params: []ecode.ParamKind{ecode.PString, ecode.PAny}, Result: ecode.RInt},
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	inst, err := compiled.NewInstance(map[string]ecode.Builtin{
		"emit": func(args []ecode.Value) (ecode.Value, error) {
			fmt.Printf("emit(%v, %v)\n", args[0], args[1])
			return int64(0), nil
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	_, _ = inst.Run(nil)
	// Output:
	// emit(alerts, 42)
}
