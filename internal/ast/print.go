package ast

import (
	"fmt"
	"strings"
)

// Print renders a node back to MATLAB-like source text. It is used by
// the majicc dump mode and by tests that round-trip the parser.
func Print(n Node) string {
	var b strings.Builder
	fprint(&b, n, 0)
	return b.String()
}

func ind(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func fprint(b *strings.Builder, n Node, depth int) {
	switch x := n.(type) {
	case *File:
		for _, s := range x.Stmts {
			fprint(b, s, depth)
		}
		for _, f := range x.Funcs {
			fprint(b, f, depth)
		}
	case *Function:
		ind(b, depth)
		b.WriteString("function ")
		switch len(x.Outs) {
		case 0:
		case 1:
			fmt.Fprintf(b, "%s = ", x.Outs[0])
		default:
			fmt.Fprintf(b, "[%s] = ", strings.Join(x.Outs, ", "))
		}
		fmt.Fprintf(b, "%s(%s)\n", x.Name, strings.Join(x.Ins, ", "))
		for _, s := range x.Body {
			fprint(b, s, depth+1)
		}
		ind(b, depth)
		b.WriteString("end\n")
	case *ExprStmt:
		ind(b, depth)
		b.WriteString(ExprString(x.X))
		if !x.Display {
			b.WriteString(";")
		}
		b.WriteString("\n")
	case *Assign:
		ind(b, depth)
		if len(x.LHS) == 1 {
			b.WriteString(ExprString(x.LHS[0]))
		} else {
			parts := make([]string, len(x.LHS))
			for i, l := range x.LHS {
				parts[i] = ExprString(l)
			}
			fmt.Fprintf(b, "[%s]", strings.Join(parts, ", "))
		}
		b.WriteString(" = ")
		b.WriteString(ExprString(x.RHS))
		if !x.Display {
			b.WriteString(";")
		}
		b.WriteString("\n")
	case *If:
		for i, c := range x.Conds {
			ind(b, depth)
			if i == 0 {
				b.WriteString("if ")
			} else {
				b.WriteString("elseif ")
			}
			b.WriteString(ExprString(c))
			b.WriteString("\n")
			for _, s := range x.Blocks[i] {
				fprint(b, s, depth+1)
			}
		}
		if x.Else != nil {
			ind(b, depth)
			b.WriteString("else\n")
			for _, s := range x.Else {
				fprint(b, s, depth+1)
			}
		}
		ind(b, depth)
		b.WriteString("end\n")
	case *While:
		ind(b, depth)
		fmt.Fprintf(b, "while %s\n", ExprString(x.Cond))
		for _, s := range x.Body {
			fprint(b, s, depth+1)
		}
		ind(b, depth)
		b.WriteString("end\n")
	case *For:
		ind(b, depth)
		fmt.Fprintf(b, "for %s = %s\n", x.Var, ExprString(x.Iter))
		for _, s := range x.Body {
			fprint(b, s, depth+1)
		}
		ind(b, depth)
		b.WriteString("end\n")
	case *Switch:
		ind(b, depth)
		fmt.Fprintf(b, "switch %s\n", ExprString(x.Subject))
		for i, c := range x.CaseVals {
			ind(b, depth+1)
			fmt.Fprintf(b, "case %s\n", ExprString(c))
			for _, s := range x.CaseBlks[i] {
				fprint(b, s, depth+2)
			}
		}
		if x.Otherwise != nil {
			ind(b, depth+1)
			b.WriteString("otherwise\n")
			for _, s := range x.Otherwise {
				fprint(b, s, depth+2)
			}
		}
		ind(b, depth)
		b.WriteString("end\n")
	case *Break:
		ind(b, depth)
		b.WriteString("break;\n")
	case *Continue:
		ind(b, depth)
		b.WriteString("continue;\n")
	case *Return:
		ind(b, depth)
		b.WriteString("return;\n")
	case *Global:
		ind(b, depth)
		fmt.Fprintf(b, "global %s;\n", strings.Join(x.Names, " "))
	case *Clear:
		ind(b, depth)
		if len(x.Names) == 0 {
			b.WriteString("clear;\n")
		} else {
			fmt.Fprintf(b, "clear %s;\n", strings.Join(x.Names, " "))
		}
	default:
		if e, ok := n.(Expr); ok {
			b.WriteString(ExprString(e))
		}
	}
}

// ExprString renders an expression with full parenthesization of
// subexpressions, which keeps the printer trivially correct.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case *NumberLit:
		s := trimFloat(x.Value)
		if x.Imag {
			s += "i"
		}
		return s
	case *StringLit:
		return "'" + strings.ReplaceAll(x.Value, "'", "''") + "'"
	case *Ident:
		return x.Name
	case *Binary:
		return "(" + ExprString(x.L) + " " + x.Op.String() + " " + ExprString(x.R) + ")"
	case *Unary:
		return "(" + x.Op.String() + ExprString(x.X) + ")"
	case *Transpose:
		if x.Conjugate {
			return ExprString(x.X) + "'"
		}
		return ExprString(x.X) + ".'"
	case *Range:
		if x.Step != nil {
			return "(" + ExprString(x.Lo) + ":" + ExprString(x.Step) + ":" + ExprString(x.Hi) + ")"
		}
		return "(" + ExprString(x.Lo) + ":" + ExprString(x.Hi) + ")"
	case *Colon:
		return ":"
	case *End:
		return "end"
	case *Call:
		if len(x.Args) == 0 && x.Kind != UserFunc && x.Kind != Builtin {
			return x.Name
		}
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = ExprString(a)
		}
		return x.Name + "(" + strings.Join(parts, ", ") + ")"
	case *Matrix:
		rows := make([]string, len(x.Rows))
		for i, row := range x.Rows {
			parts := make([]string, len(row))
			for j, e := range row {
				parts[j] = ExprString(e)
			}
			rows[i] = strings.Join(parts, ", ")
		}
		return "[" + strings.Join(rows, "; ") + "]"
	}
	return fmt.Sprintf("<?expr %T>", e)
}

func trimFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}
