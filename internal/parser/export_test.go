package parser

import (
	"reflect"

	"repro/internal/ast"
)

// eachNeed calls f with every slab's Need in p.
func eachNeed(p *parser, f func(need reflect.Value)) {
	slabs := reflect.ValueOf(&p.a).Elem()
	for i := 0; i < slabs.NumField(); i++ {
		f(slabs.Field(i).FieldByName("Need"))
	}
}

// ParseScaled parses src with every slab counted for frac of what the
// count found.
func ParseScaled(src string, frac float64) (*ast.File, error) {
	p, err := newParser(src)
	defer p.release()
	if err != nil {
		return nil, err
	}
	p.a = ast.Slabs{}
	p.count()
	eachNeed(p, func(need reflect.Value) { need.SetInt(int64(float64(need.Int()) * frac)) })
	p.a.Alloc()
	return p.file(src)
}

// Kinds reports how many kinds of node and of list the count finds in
// src: how many arrays its parse makes when every count is a bound.
func Kinds(src string) int {
	p, err := newParser(src)
	defer p.release()
	if err != nil {
		return 0
	}
	kinds := 0
	eachNeed(p, func(need reflect.Value) {
		if need.Int() > 0 {
			kinds++
		}
	})
	return kinds
}
