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
// Emit renders the tagged fields as samples, so the JSON view and the
// Prometheus view both read the one declaration.

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

// Emit appends to dst one sample for every metric-tagged field of v (a
// struct, or a pointer or interface holding one), walking into untagged
// nested structs, and returns the extended slice.
func Emit(dst []Sample, v any) []Sample { return emitStruct(dst, reflect.ValueOf(v)) }

func emitStruct(dst []Sample, v reflect.Value) []Sample {
	for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
		if v.IsNil() {
			return dst
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return dst
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("metric")
		switch tag {
		case "-":
			continue
		case "":
			dst = emitStruct(dst, v.Field(i))
			continue
		}
		m := parseMetric(tag)
		x := number(v.Field(i), f.Name)
		dst = append(dst, Sample{Name: m.name, Help: f.Tag.Get("help"), Kind: m.kind, Labels: m.labels, Value: x})
		if m.gate && x == 0 {
			return dst
		}
	}
	return dst
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
