package ecode_test

import (
	"fmt"

	"sysprof/internal/ecode"
)

// packet is the host struct the example binds as "ev".
type packet struct{ size int }

// Declare what a program may read of the host record — one field table,
// the verifier's schema and the compiled program's getters — verify a
// small analyzer with persistent state against it, lower it to closures,
// and run it per event.
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
		Name: "bigpackets",
		Binding: ecode.Bind("ev",
			ecode.Int("bytes", func(p *packet) int64 { return int64(p.size) }),
		),
	})
	if err != nil {
		fmt.Println(verdict.Render())
		return
	}
	inst := compiled.NewInstance()
	for _, size := range []int{500, 1500, 2000, 100} {
		out, err := inst.Run(&packet{size: size})
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

// Host programs can expose custom builtins, like SysProf's emit(): one
// entry carries the signature the verifier checks calls against and the
// implementation a call runs.
func ExampleCompiled_NewInstance() {
	compiled, _, err := ecode.MustCompile(`emit("alerts", 42); return 0;`).CompileVerified(ecode.VerifyEnv{
		Builtins: map[string]ecode.Builtin{
			"emit": {Params: []ecode.ParamKind{ecode.PString, ecode.PAny}, Result: ecode.RInt,
				Fn: func(args []ecode.Arg) ecode.Arg {
					fmt.Printf("emit(%v, %v)\n", args[0].Str, args[1].Value())
					return ecode.Arg{T: ecode.TInt}
				}},
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	_, _ = compiled.NewInstance().Run(nil)
	// Output:
	// emit(alerts, 42)
}
