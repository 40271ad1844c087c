// Package ast defines the abstract syntax tree the MaJIC pipeline
// operates on: the parser produces it, the analyses number and classify
// it (on a compile's private copy), the inliner rewrites it, and both
// the interpreter and the code generators consume it.
package ast

import "fmt"

// Pos is a source position.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Node is the interface implemented by every AST node.
type Node interface {
	Pos() Pos
}

// Expr is an expression node. Every expression embeds an ExprID.
type Expr interface {
	Node
	ID() int
	SetID(id int)
}

// ExprID is an expression's number in the control-flow graph of the body
// that holds it (cfg.Build numbers 1..Graph.Exprs; 0 is unnumbered). A
// node embeds it where it fills padding.
type ExprID struct{ id int32 }

func (x *ExprID) ID() int      { return int(x.id) }
func (x *ExprID) SetID(id int) { x.id = int32(id) }

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// --- Expressions ----------------------------------------------------------

// NumberLit is a numeric literal. Imag marks imaginary literals (2i).
type NumberLit struct {
	P     Pos
	Value float64
	Imag  bool
	// IsInt records whether the literal was written as an integer, which
	// seeds the intrinsic type lattice at int rather than real.
	IsInt bool
	ExprID
}

// StringLit is a single-quoted character literal.
type StringLit struct {
	P     Pos
	Value string
	ExprID
}

// Ident is a name use. The disambiguator records its meaning in Kind.
type Ident struct {
	P    Pos
	Name string
	Kind Kind
	ExprID
}

// BinOp enumerates binary operators.
type BinOp uint8

const (
	OpAdd BinOp = iota
	OpSub
	OpMul    // *
	OpDiv    // /
	OpLDiv   // \
	OpPow    // ^
	OpEMul   // .*
	OpEDiv   // ./
	OpELDiv  // .\
	OpEPow   // .^
	OpEq     // ==
	OpNe     // ~=
	OpLt     // <
	OpLe     // <=
	OpGt     // >
	OpGe     // >=
	OpAnd    // &
	OpOr     // |
	OpAndAnd // &&
	OpOrOr   // ||
)

var binOpNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpLDiv: "\\",
	OpPow: "^", OpEMul: ".*", OpEDiv: "./", OpELDiv: ".\\", OpEPow: ".^",
	OpEq: "==", OpNe: "~=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&", OpOr: "|", OpAndAnd: "&&", OpOrOr: "||",
}

// String returns the MATLAB spelling of the operator.
func (op BinOp) String() string { return binOpNames[op] }

// IsRelational reports whether op is a comparison.
func (op BinOp) IsRelational() bool { return op >= OpEq && op <= OpGe }

// IsLogical reports whether op is a logical connective.
func (op BinOp) IsLogical() bool { return op >= OpAnd && op <= OpOrOr }

// Binary is a binary operation.
type Binary struct {
	P  Pos
	Op BinOp
	ExprID
	L, R Expr
}

// UnOp enumerates unary operators.
type UnOp uint8

const (
	OpNeg UnOp = iota // -
	OpPos             // +
	OpNot             // ~
)

func (op UnOp) String() string { return [...]string{"-", "+", "~"}[op] }

// Unary is a unary operation.
type Unary struct {
	P  Pos
	Op UnOp
	ExprID
	X Expr
}

// Transpose is x' (conjugate) or x.' (plain).
type Transpose struct {
	P         Pos
	X         Expr
	Conjugate bool
	ExprID
}

// Range is lo:hi or lo:step:hi. Step is nil for the two-operand form.
type Range struct {
	P        Pos
	Lo, Step Expr
	Hi       Expr
	ExprID
}

// Colon is the bare ':' subscript magic.
type Colon struct {
	P Pos
	ExprID
}

// End is the 'end' keyword inside a subscript. Dim and NumDims record
// which dimension it refers to (filled by the parser).
type End struct {
	P       Pos
	Dim     int // 0-based subscript position
	NumDims int // total number of subscripts in the enclosing index
	ExprID
}

// Kind is the disambiguator's verdict on a name occurrence (an Ident or
// a Call), written on the compile's private copy of the tree; a clone
// carries it.
type Kind uint8

const (
	Unresolved Kind = iota // not disambiguated
	Variable               // a variable; a Call on it indexes, A(i,j)
	Builtin                // a builtin function or constant
	UserFunc               // a user-defined function
	// Ambiguous is a variable on some paths only (the paper's Figure 2),
	// and Undefined neither a variable nor a known function. MaJIC defers
	// the first to runtime; our pipeline compiles neither, and the engine
	// interprets the function.
	Ambiguous
	Undefined
)

func (k Kind) String() string {
	return [...]string{"unresolved", "variable", "builtin", "user", "ambiguous", "undefined"}[k]
}

// Call is the syntactically ambiguous form name(args), or name alone
// when name is not a variable: indexing, builtin call, or user function
// call. The disambiguator decides and records the decision in Kind.
type Call struct {
	P    Pos
	Name string // callee/array name
	Args []Expr
	Kind Kind
	ExprID
	// NArgsOut is set for calls in multi-assignment contexts.
	NArgsOut int
}

// Matrix is a bracketed literal [rows; of; elements].
type Matrix struct {
	P    Pos
	Rows [][]Expr
	ExprID
}

// --- Statements -----------------------------------------------------------

// ExprStmt evaluates an expression; Display controls echo of the result
// (no trailing semicolon in the source).
type ExprStmt struct {
	P       Pos
	X       Expr
	Display bool
}

// Assign is lhs = rhs, where lhs is an Ident or an indexing Call.
// For multi-assignment [a,b] = f(...), LHS has several entries.
type Assign struct {
	P       Pos
	LHS     []Expr // Ident or Call (indexed assignment)
	RHS     Expr
	Display bool
}

// If is an if/elseif/else chain; Conds and Blocks are parallel, with an
// optional trailing Else block.
type If struct {
	P      Pos
	Conds  []Expr
	Blocks [][]Stmt
	Else   []Stmt
}

// While is a while loop.
type While struct {
	P    Pos
	Cond Expr
	Body []Stmt
}

// For is for Var = Iter, body, end. Iter is typically a Range; per
// MATLAB, a matrix iterates over columns.
type For struct {
	P    Pos
	Var  string
	Iter Expr
	Body []Stmt
}

// Switch is a switch/case/otherwise statement.
type Switch struct {
	P         Pos
	Subject   Expr
	CaseVals  []Expr
	CaseBlks  [][]Stmt
	Otherwise []Stmt
}

// Break is the break statement.
type Break struct{ P Pos }

// Continue is the continue statement.
type Continue struct{ P Pos }

// Return is the return statement.
type Return struct{ P Pos }

// Global declares global variables (parsed; the engine gives each its
// own binding in the global workspace).
type Global struct {
	P     Pos
	Names []string
}

// Clear resets the workspace (names empty) or specific variables.
type Clear struct {
	P     Pos
	Names []string
}

// --- Functions ------------------------------------------------------------

// Function is one function definition: function [outs] = name(ins).
type Function struct {
	P    Pos
	Name string
	Ins  []string
	Outs []string
	Body []Stmt
	// Source records the original text (used by the repository for
	// change detection) and LineCount the size for the inlining cap.
	Source    string
	LineCount int
}

// File is a parsed source file: either a script (Stmts non-empty) or a
// list of function definitions (first is the primary, rest are local
// subfunctions).
type File struct {
	P     Pos
	Stmts []Stmt
	Funcs []*Function
}

// --- interface plumbing ----------------------------------------------------

func (n *NumberLit) Pos() Pos { return n.P }
func (n *StringLit) Pos() Pos { return n.P }
func (n *Ident) Pos() Pos     { return n.P }
func (n *Binary) Pos() Pos    { return n.P }
func (n *Unary) Pos() Pos     { return n.P }
func (n *Transpose) Pos() Pos { return n.P }
func (n *Range) Pos() Pos     { return n.P }
func (n *Colon) Pos() Pos     { return n.P }
func (n *End) Pos() Pos       { return n.P }
func (n *Call) Pos() Pos      { return n.P }
func (n *Matrix) Pos() Pos    { return n.P }

func (n *ExprStmt) Pos() Pos { return n.P }
func (n *Assign) Pos() Pos   { return n.P }
func (n *If) Pos() Pos       { return n.P }
func (n *While) Pos() Pos    { return n.P }
func (n *For) Pos() Pos      { return n.P }
func (n *Switch) Pos() Pos   { return n.P }
func (n *Break) Pos() Pos    { return n.P }
func (n *Continue) Pos() Pos { return n.P }
func (n *Return) Pos() Pos   { return n.P }
func (n *Global) Pos() Pos   { return n.P }
func (n *Clear) Pos() Pos    { return n.P }
func (n *Function) Pos() Pos { return n.P }
func (n *File) Pos() Pos     { return n.P }

func (n *ExprStmt) stmtNode() {}
func (n *Assign) stmtNode()   {}
func (n *If) stmtNode()       {}
func (n *While) stmtNode()    {}
func (n *For) stmtNode()      {}
func (n *Switch) stmtNode()   {}
func (n *Break) stmtNode()    {}
func (n *Continue) stmtNode() {}
func (n *Return) stmtNode()   {}
func (n *Global) stmtNode()   {}
func (n *Clear) stmtNode()    {}
