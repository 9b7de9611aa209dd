package ecode

// AST node types. Statements and expressions are small tagged structs,
// never written after parsing: the verifier (verify.go) checks them and
// records what each name and expression resolved to in a table keyed by
// node, and the closure compiler (compile.go) lowers them from that
// table.

type stmt interface{ stmtNode() }

type (
	declStmt struct {
		typ    string // "int" | "float" | "bool" | "string"
		static bool
		name   string
		init   expr // may be nil
		line   int
	}
	assignStmt struct {
		name string
		op   string // "=", "+=", "-=", "*=", "/="
		val  expr
		line int
	}
	ifStmt struct {
		cond      expr
		then, els []stmt
		line      int
	}
	forStmt struct {
		init stmt // may be nil
		cond expr // may be nil (infinite)
		post stmt // may be nil
		body []stmt
		line int
	}
	returnStmt struct {
		val  expr // may be nil
		line int
	}
	exprStmt struct {
		e    expr
		line int
	}
	breakStmt    struct{ line int }
	continueStmt struct{ line int }
)

func (*declStmt) stmtNode()     {}
func (*assignStmt) stmtNode()   {}
func (*ifStmt) stmtNode()       {}
func (*forStmt) stmtNode()      {}
func (*returnStmt) stmtNode()   {}
func (*exprStmt) stmtNode()     {}
func (*breakStmt) stmtNode()    {}
func (*continueStmt) stmtNode() {}

type expr interface{ exprNode() }

type (
	intLit    struct{ v int64 }
	floatLit  struct{ v float64 }
	boolLit   struct{ v bool }
	stringLit struct{ v string }
	identExpr struct {
		name string
		line int
	}
	fieldExpr struct {
		recv  expr
		field string
		line  int
	}
	callExpr struct {
		name string
		args []expr
		line int
	}
	unaryExpr struct {
		op   string // "-", "!"
		x    expr
		line int
	}
	binaryExpr struct {
		op   string
		l, r expr
		line int
	}
)

func (*intLit) exprNode()     {}
func (*floatLit) exprNode()   {}
func (*boolLit) exprNode()    {}
func (*stringLit) exprNode()  {}
func (*identExpr) exprNode()  {}
func (*fieldExpr) exprNode()  {}
func (*callExpr) exprNode()   {}
func (*unaryExpr) exprNode()  {}
func (*binaryExpr) exprNode() {}
