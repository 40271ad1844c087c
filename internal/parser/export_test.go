package parser

import "reflect"

// ScratchSpans calls f with the address range of each kept parser and of
// every array it keeps between parses (its slabs and its stacks). It
// takes up to n parsers, the spare and pooled ones, and gives them back.
func ScratchSpans(n int, f func(lo, hi uintptr)) {
	var taken []*parser
	for range n {
		p := takeParser()
		taken = append(taken, p)
		v := reflect.ValueOf(p)
		f(v.Pointer(), v.Pointer()+v.Type().Elem().Size())
		arrays(v.Elem(), f)
	}
	for _, p := range taken {
		p.release()
	}
}

// arrays calls f with the range of every slice's backing array in v.
func arrays(v reflect.Value, f func(lo, hi uintptr)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			arrays(v.Field(i), f)
		}
	case reflect.Slice:
		if v.Cap() > 0 {
			lo := v.Pointer()
			f(lo, lo+uintptr(v.Cap())*v.Type().Elem().Size())
		}
	}
}
