package persist

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/types"
)

// testSnapshot exercises every encodable field: NaN/Inf range bounds,
// complex constants, empty and non-empty pools, colon markers, spilled
// parameter bindings, interpret-only entries, return summaries and
// dependency lists, tiering profiles, and multi-function files.
func testSnapshot() *Snapshot {
	prog := &ir.Prog{
		Name: "f",
		Ins: []ir.Instr{
			{Op: ir.OpFMov, A: 0, B: 3},
			{Op: ir.OpFAdd, A: 1, B: 0, C: 0, D: -1, Imm: math.Inf(1)},
			{Op: ir.OpGEMV, A: 2, B: 1, C: 0, D: -3, Imm: -1},
			{Op: ir.OpStageF, A: 1, B: 0},
			{Op: ir.OpCallUser, A: 4},
			{Op: ir.OpFetchI, A: 1, B: 0},
			{Op: ir.OpStageI, A: 0, B: 1},
			{Op: ir.OpRet},
		},
		NumF: 6, NumI: 4, NumC: 2, NumV: 3,
		SlotsF: 1, SlotsI: 0, SlotsC: 0, SlotsV: 2,
		ConstF: []float64{3.5, math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000123)},
		ConstI: []int64{1, math.MinInt64},
		ConstC: []complex128{complex(1, -2), complex(math.Inf(-1), math.NaN())},
		Aux:    []int32{3, -1, 7, 0 /* call helper: */, 0, 1, ir.Staged, 2, 2, ir.Staged},
		MathFns: []string{
			"sqrt", "exp",
		},
		Builtins: []string{"zeros", "size"},
		Calls:    []string{"helper"},
		VPoolStrs: []ir.VConstDesc{
			{IsColon: true},
			{Str: "a string\x00with bytes"},
			{Str: ""},
		},
		Params: []ir.ParamBinding{
			{Bank: ir.BankF, Reg: 0},
			{Bank: ir.BankV, Reg: 5, Slot: true},
		},
		OutRegs:   []int32{ir.Staged, 2},
		Allocated: true,
	}
	sig := types.Signature{
		{I: 3, MinShape: types.ScalarShape, MaxShape: types.ScalarShape, R: types.Const(4)},
		{I: 5, MinShape: types.ShapeBot, MaxShape: types.ShapeTop, R: types.RangeTop},
	}
	src := "function y = f(a, b)\ny = a + b;\n"
	h := HashSource(src)
	src2 := "function y = g(x)\ny = x;\n"
	h2 := HashSource(src2)
	return &Snapshot{Funcs: []FuncState{
		{
			Name: "f", Source: src, SrcHash: h,
			Entries: []EntryState{
				{SrcHash: h, Sig: sig, Quality: 1, Hits: 42, Prog: prog,
					Ret:  []types.Type{types.ScalarOf(types.IInt, types.RangeTop), types.Top},
					Deps: []Dep{{Name: "g", SrcHash: h2}, {Name: "helper", SrcHash: 0xdeadbeef}}},
				{SrcHash: h, Sig: types.Signature{types.Top}, Quality: 0, Speculative: true, Hits: 7},
			},
			Profile: []ProfileSig{
				{Key: sig.Key(), Observed: sig, Entries: 17, BackEdges: 4096},
				{Key: "top", Observed: types.Signature{types.Top}, Entries: 1},
			},
		},
		{Name: "g", Source: src2, SrcHash: h2},
	}}
}

func TestRoundTrip(t *testing.T) {
	want := testSnapshot()
	data := Encode(want)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	// reflect.DeepEqual would trip on NaN != NaN, so compare the
	// re-encoded bytes: bit-exact round trip including NaN payloads.
	if again := Encode(got); !reflect.DeepEqual(data, again) {
		t.Fatalf("re-encode mismatch: %d vs %d bytes", len(data), len(again))
	}
	// NaN must survive bit-exactly (DeepEqual can't see that).
	p := got.Funcs[0].Entries[0].Prog
	if !math.IsNaN(imag(p.ConstC[1])) || !math.IsInf(real(p.ConstC[1]), -1) {
		t.Fatalf("ConstC NaN/Inf not preserved: %v", p.ConstC[1])
	}
	if !math.Signbit(p.ConstF[1]) || math.Float64bits(p.ConstF[2]) != 0x7ff8000000000123 || p.ConstI[1] != math.MinInt64 {
		t.Fatalf("constant tables not preserved bit for bit: %v %v", p.ConstF, p.ConstI)
	}
	for _, q := range []*ir.Prog{p, want.Funcs[0].Entries[0].Prog} {
		q.ConstF, q.ConstC = nil, nil
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %#v\ngot  %#v", want, got)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	got, err := Decode(Encode(&Snapshot{}))
	if err != nil {
		t.Fatalf("Decode empty: %v", err)
	}
	if len(got.Funcs) != 0 {
		t.Fatalf("empty snapshot decoded to %d funcs", len(got.Funcs))
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	data := Encode(testSnapshot())
	data[0] ^= 0xff
	if _, err := Decode(data); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestDecodeRejectsVersionMismatch(t *testing.T) {
	data := Encode(testSnapshot())
	binary.LittleEndian.PutUint16(data[4:6], Version+1)
	if _, err := Decode(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestDecodeRejectsForeignFingerprint(t *testing.T) {
	data := Encode(testSnapshot())
	binary.LittleEndian.PutUint64(data[8:16], 0xdeadbeef)
	if _, err := Decode(data); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("want ErrFingerprint, got %v", err)
	}
}

func TestDecodeRejectsChecksumDamage(t *testing.T) {
	data := Encode(testSnapshot())
	data[len(data)-1] ^= 0x01 // flip one payload bit
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestDecodeRejectsEveryTruncation cuts the snapshot at every length
// from zero to full-1: none may decode, none may panic.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	data := Encode(testSnapshot())
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(data))
		}
	}
}

// TestDecodeRejectsHostileLengths corrupts the payload's first count
// field (numFuncs) to a huge value: the decoder must reject it via the
// checksum or the length bound, not allocate gigabytes.
func TestDecodeRejectsHostileLengths(t *testing.T) {
	data := Encode(testSnapshot())
	binary.LittleEndian.PutUint32(data[headerLen:], 0xffffffff)
	if _, err := Decode(data); err == nil {
		t.Fatal("hostile numFuncs decoded successfully")
	}
	// Same with a fixed-up checksum, so the length guard itself is hit.
	payload := data[headerLen:]
	binary.LittleEndian.PutUint32(data[20:24], crc32.ChecksumIEEE(payload))
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for hostile count, got %v", err)
	}
}

// TestDecodeRejectsTrailingBytes appends garbage beyond the declared
// payload; the header length check must catch it.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	data := append(Encode(testSnapshot()), 0x00, 0x01)
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for trailing bytes, got %v", err)
	}
}

func TestHashSourceDistinguishesSources(t *testing.T) {
	a := HashSource("function y = f(x)\ny = x + 1;\n")
	b := HashSource("function y = f(x)\ny = x + 2;\n")
	if a == b {
		t.Fatal("distinct sources hash identically")
	}
	if a != HashSource("function y = f(x)\ny = x + 1;\n") {
		t.Fatal("hash is not deterministic")
	}
}

func TestFingerprintStable(t *testing.T) {
	if ir.Fingerprint() != ir.Fingerprint() {
		t.Fatal("IR fingerprint is not stable within a build")
	}
	if ir.Fingerprint() == 0 {
		t.Fatal("IR fingerprint is zero")
	}
}

// TestDecodeRejectsPreSparsitySnapshot pins the v3 staleness gate: a v2
// snapshot was encoded before types carried the sparsity bit, so its
// typed IR silently assumed dense representations everywhere. Decoding
// one must fail with ErrVersion (the caller cold-starts) — the entries
// must never be resurrected with a reinterpreted payload, even though a
// v2 payload is byte-wise parseable under the v3 layout up to the
// missing trailing booleans.
// TestDecodeRejectsPreDependencySnapshot pins the v4 gate the same way:
// a v3 entry has no dependency list, so nothing could tell that a
// function it inlined has changed since — it must cold-start, not load.
func TestDecodeRejectsPreDependencySnapshot(t *testing.T) {
	data := Encode(testSnapshot())
	binary.LittleEndian.PutUint16(data[4:6], 3)
	if _, err := Decode(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("v3 snapshot: want ErrVersion, got %v", err)
	}
	rec := EncodeRecord(&EntryRecord{Origin: "n", Func: "g", Source: "function y = g(x)\ny = x;\n"})
	binary.LittleEndian.PutUint16(rec[4:6], 3)
	if _, err := DecodeRecord(rec); !errors.Is(err, ErrVersion) {
		t.Fatalf("v3 record: want ErrVersion, got %v", err)
	}
}

// TestDecodeRejectsBoxedCallSnapshot pins the v5 gate: v4 code boxes what
// it passes and returns and expects the same of its callees, and nothing
// in the bytes says so — a v4 snapshot parses under the v5 layout to the
// last byte. It must cold-start.
func TestDecodeRejectsBoxedCallSnapshot(t *testing.T) {
	data := Encode(testSnapshot())
	binary.LittleEndian.PutUint16(data[4:6], 4)
	if _, err := Decode(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("v4 snapshot: want ErrVersion, got %v", err)
	}
	rec := EncodeRecord(&EntryRecord{Origin: "n", Func: "g", Source: "function y = g(x)\ny = x;\n"})
	binary.LittleEndian.PutUint16(rec[4:6], 4)
	if _, err := DecodeRecord(rec); !errors.Is(err, ErrVersion) {
		t.Fatalf("v4 record: want ErrVersion, got %v", err)
	}
}

// TestDecodeRejectsConstantInstructionSnapshot pins the v6 gate: v5 code
// materialises its literals with instructions the IR no longer has and
// carries no constant tables. The IR fingerprint moves with the opcode
// table too, but a format that changed says so itself. It must cold-start.
func TestDecodeRejectsConstantInstructionSnapshot(t *testing.T) {
	data := Encode(testSnapshot())
	binary.LittleEndian.PutUint16(data[4:6], 5)
	if _, err := Decode(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("v5 snapshot: want ErrVersion, got %v", err)
	}
	rec := EncodeRecord(&EntryRecord{Origin: "n", Func: "g", Source: "function y = g(x)\ny = x;\n"})
	binary.LittleEndian.PutUint16(rec[4:6], 5)
	if _, err := DecodeRecord(rec); !errors.Is(err, ErrVersion) {
		t.Fatalf("v5 record: want ErrVersion, got %v", err)
	}
}

func TestDecodeRejectsPreSparsitySnapshot(t *testing.T) {
	data := Encode(testSnapshot())
	binary.LittleEndian.PutUint16(data[4:6], 2) // forge the pre-sparsity version
	// The CRC covers only the payload, not the header, so the forged
	// header reaches the version check rather than tripping ErrCorrupt.
	_, err := Decode(data)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("v2 snapshot: want ErrVersion, got %v", err)
	}
}
