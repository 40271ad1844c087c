package telemetry

import (
	"fmt"
	"reflect"
	"strings"
)

// A metric is declared once, as a struct tag on the Stats field that
// already carries its JSON name:
//
//	Hits int `json:"hits" metric:"majic_repo_hits_total,counter" help:"Lookups served by a safe compiled entry."`
//
// The metric tag is the family name, its kind (counter or gauge), then
// any key=value labels. A bool tagged "gate" hides the rest of its
// struct when false. metric:"-" keeps a field out of the exposition; an
// untagged struct field (or interface holding a struct) is walked into.
// Emit renders the tagged fields as samples and Add sums them, so the
// JSON view, the Prometheus view and the isolated-mode sums all read the
// one declaration.

// fieldMetric is one parsed metric tag.
type fieldMetric struct {
	name   string
	kind   Kind
	labels []Label
	gate   bool
}

func parseMetric(tag string) fieldMetric {
	parts := strings.Split(tag, ",")
	m := fieldMetric{name: parts[0]}
	for _, p := range parts[1:] {
		switch p {
		case "counter":
			m.kind = KindCounter
		case "gauge":
			m.kind = KindGauge
		case "gate":
			m.gate = true
		default:
			k, v, ok := strings.Cut(p, "=")
			if !ok {
				panic(fmt.Sprintf("telemetry: bad metric tag %q", tag))
			}
			m.labels = append(m.labels, Label{Key: k, Value: v})
		}
	}
	return m
}

// Emit emits one sample for every metric-tagged field of v (a struct, or
// a pointer or interface holding one), walking into untagged nested
// structs.
func Emit(emit func(Sample), v any) { emitStruct(emit, reflect.ValueOf(v)) }

func emitStruct(emit func(Sample), v reflect.Value) {
	for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("metric")
		switch tag {
		case "-":
			continue
		case "":
			emitStruct(emit, v.Field(i))
			continue
		}
		m := parseMetric(tag)
		x := number(v.Field(i), f.Name)
		emit(Sample{Name: m.name, Help: f.Tag.Get("help"), Kind: m.kind, Labels: m.labels, Value: x})
		if m.gate && x == 0 {
			return
		}
	}
}

func number(v reflect.Value, field string) float64 {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return float64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return float64(v.Uint())
	case reflect.Float32, reflect.Float64:
		return v.Float()
	case reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("telemetry: metric field %s is a %s, not a number", field, v.Kind()))
}

// Add adds src's counters into dst, a pointer to a struct of src's type:
// every integer field except those tagged as gauges, which are added
// only when gauges is set (a live session's level adds to a total, a
// retired one's does not). A field kept out of the exposition is summed
// too — a derived sum of counters is a counter.
func Add(dst, src any, gauges bool) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		if !gauges && parseMetric(d.Type().Field(i).Tag.Get("metric")).kind == KindGauge {
			continue
		}
		switch f := d.Field(i); f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + s.Field(i).Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + s.Field(i).Uint())
		}
	}
}
