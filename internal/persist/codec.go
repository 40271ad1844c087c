// Package persist serializes the code repository so compiled code
// survives process restarts: the paper's repository amortizes JIT cost
// across invocations, and persistence extends that amortization across
// process lifetimes — a restarted daemon warm-starts from the snapshot
// and replays known workloads with zero JIT compiles.
//
// The format is a versioned binary codec. A fixed header carries a
// magic number, the format version, the IR fingerprint of the writing
// build (opcode numbering is iota-assigned, so a build with a different
// IR must not decode the instruction stream), and a CRC over the
// payload. Any mismatch — wrong magic, unknown version, foreign
// fingerprint, corrupt or truncated payload — is a decode error the
// loader turns into a cold start, never a crash.
//
// Staleness is guarded per function: every entry records the FNV-64a
// hash of the source it was compiled from, and the loader drops entries
// whose hash does not match the function source in the snapshot (or the
// already-registered live source). This is the repository's generation
// invariant — a redefinition must never resurrect stale code — carried
// across process lifetimes.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"

	"repro/internal/ir"
	"repro/internal/types"
)

// Format constants. Version bumps whenever the payload layout changes, or
// what the bytes mean does (v5).
const (
	magic        = "MJRP"
	Version      = 6                     // v6: a program carries its constant tables (literals are registers of a constant area, not instructions); v5: scalars cross calls in registers (staged call operands, outputs returned unboxed); v4 added per-entry return summaries and dependencies; v3 the sparsity bit in encoded types; v2 the per-function tiering profile section
	headerLen    = 4 + 2 + 2 + 8 + 4 + 4 // magic, version, flags, fingerprint, payload len, payload crc
	maxSnapshotB = 1 << 30               // decode refuses payloads beyond 1 GiB
)

// Decode errors. All of them mean "cold start", none of them mean
// "crash".
var (
	ErrBadMagic       = errors.New("persist: not a repository snapshot (bad magic)")
	ErrVersion        = errors.New("persist: unsupported snapshot format version")
	ErrFingerprint    = errors.New("persist: snapshot written by a build with a different IR")
	ErrCorrupt        = errors.New("persist: corrupt snapshot")
	errShortSnapshot  = fmt.Errorf("%w: truncated", ErrCorrupt)
	errChecksum       = fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	errLengthOverflow = fmt.Errorf("%w: length field exceeds remaining data", ErrCorrupt)
)

// Snapshot is the serializable state of a code library: every
// registered function source plus its compiled repository entries.
type Snapshot struct {
	Funcs []FuncState
}

// FuncState is one registered function: its name, the source text it
// was defined by (the full file text, so subfunctions round-trip), the
// hash of that source, and the compiled entries.
type FuncState struct {
	Name    string
	Source  string
	SrcHash uint64
	Entries []EntryState
	// Profile is the function's tiering profile (per widened signature):
	// persisted hotness means a warm-started process re-promotes hot
	// signatures immediately instead of re-warming from zero. Promotion
	// latches and OSR state are not persisted — they are re-derived
	// against the new lifetime's code.
	Profile []ProfileSig
}

// ProfileSig is one persisted (widened signature → hotness) record.
type ProfileSig struct {
	Key       string
	Observed  types.Signature
	Entries   int64
	BackEdges int64
}

// EntryState is one compiled repository entry in serializable form.
// Prog is nil for interpret-only entries (cached fall-back decisions).
// SrcHash records the hash of the source the entry was compiled from;
// the loader drops entries whose hash disagrees with their function's
// source — stale code from another generation must not resurrect.
//
// Ret and Deps (v4) are what callers and the invalidator know about the
// code beyond its own source: the inferred result types (present only
// for code without side effects) and the other functions it was compiled
// against. An entry from before v4 carries no dependency list,
// so nothing could tell that a function it inlined has since changed —
// the Version gate cold-starts such snapshots instead.
//
// v5 changes no field and no byte of the layout: it marks the calling
// convention of the code inside Prog. A v4 program boxes every call
// argument, leaves every output in a V register and expects its callees
// to do the same; loaded beside v5 code it would hand boxes to fetches
// and be handed registers it never staged. The IR fingerprint happens to
// move with the same change (the convention came with four opcodes), but
// it hashes opcode names, not what the aux words of a call or
// Prog.OutRegs mean, so the version is what says it.
//
// v6 adds Prog's constant tables (ConstF, ConstI, ConstC in place of the
// complex pool): a literal is a register of the constant area that ends
// each scalar bank, and v5 code materialised it with instructions the IR
// no longer has.
type EntryState struct {
	SrcHash     uint64
	Sig         types.Signature
	Quality     uint8
	Speculative bool
	Hits        int64
	Prog        *ir.Prog
	Ret         []types.Type
	Deps        []Dep
}

// Dep is one function an entry was compiled against (inlined, or asked
// for its return summary), with the hash of the source it had then.
type Dep struct {
	Name    string
	SrcHash uint64
}

// HashSource returns the FNV-64a hash of a function source text — the
// cross-lifetime analog of the repository's generation counter.
func HashSource(src string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(src))
	return h.Sum64()
}

// --- encoding ----------------------------------------------------------------

type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i32(v int32)  { e.u32(uint32(v)) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) strs(ss []string) {
	e.u32(uint32(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}
func (e *encoder) i32s(vs []int32) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.i32(v)
	}
}

func (e *encoder) extent(x types.Extent) {
	e.boolean(x.Inf)
	e.i64(int64(x.N))
}

func (e *encoder) shape(s types.Shape) {
	e.extent(s.R)
	e.extent(s.C)
}

func (e *encoder) typ(t types.Type) {
	e.u8(uint8(t.I))
	e.shape(t.MinShape)
	e.shape(t.MaxShape)
	e.f64(t.R.Lo)
	e.f64(t.R.Hi)
	// v3: the sparsity bit. Entries compiled before the bit existed
	// assumed dense representations everywhere; the Version gate turns
	// their snapshots into cold starts rather than resurrecting code
	// with the wrong representation assumptions.
	e.boolean(t.Sp)
}

func (e *encoder) sig(s types.Signature) {
	e.u32(uint32(len(s)))
	for _, t := range s {
		e.typ(t)
	}
}

func (e *encoder) prog(p *ir.Prog) {
	e.str(p.Name)
	e.u32(uint32(len(p.Ins)))
	for _, in := range p.Ins {
		e.u16(uint16(in.Op))
		e.i32(in.A)
		e.i32(in.B)
		e.i32(in.C)
		e.i32(in.D)
		e.f64(in.Imm)
	}
	e.i32(p.NumF)
	e.i32(p.NumI)
	e.i32(p.NumC)
	e.i32(p.NumV)
	e.i32(p.SlotsF)
	e.i32(p.SlotsI)
	e.i32(p.SlotsC)
	e.i32(p.SlotsV)
	e.u32(uint32(len(p.ConstF)))
	for _, x := range p.ConstF {
		e.f64(x)
	}
	e.u32(uint32(len(p.ConstI)))
	for _, x := range p.ConstI {
		e.i64(x)
	}
	e.u32(uint32(len(p.ConstC)))
	for _, c := range p.ConstC {
		e.f64(real(c))
		e.f64(imag(c))
	}
	e.i32s(p.Aux)
	e.strs(p.MathFns)
	e.strs(p.Builtins)
	e.strs(p.Calls)
	e.u32(uint32(len(p.VPoolStrs)))
	for _, vc := range p.VPoolStrs {
		e.boolean(vc.IsColon)
		e.str(vc.Str)
	}
	e.u32(uint32(len(p.Params)))
	for _, pb := range p.Params {
		e.u8(uint8(pb.Bank))
		e.i32(pb.Reg)
		e.boolean(pb.Slot)
	}
	e.i32s(p.OutRegs)
	e.boolean(p.Allocated)
}

func (e *encoder) entry(es EntryState) {
	e.u64(es.SrcHash)
	e.sig(es.Sig)
	e.u8(es.Quality)
	e.boolean(es.Speculative)
	e.i64(es.Hits)
	e.boolean(es.Prog != nil)
	if es.Prog != nil {
		e.prog(es.Prog)
	}
	e.sig(es.Ret)
	e.u32(uint32(len(es.Deps)))
	for _, d := range es.Deps {
		e.str(d.Name)
		e.u64(d.SrcHash)
	}
}

// Encode serializes a snapshot: header (magic, version, IR fingerprint,
// payload length, payload CRC) followed by the payload.
func Encode(s *Snapshot) []byte {
	var e encoder
	e.u32(uint32(len(s.Funcs)))
	for _, fs := range s.Funcs {
		e.str(fs.Name)
		e.str(fs.Source)
		e.u64(fs.SrcHash)
		e.u32(uint32(len(fs.Entries)))
		for _, es := range fs.Entries {
			e.entry(es)
		}
		e.u32(uint32(len(fs.Profile)))
		for _, ps := range fs.Profile {
			e.str(ps.Key)
			e.sig(ps.Observed)
			e.i64(ps.Entries)
			e.i64(ps.BackEdges)
		}
	}
	payload := e.buf

	var h encoder
	h.buf = make([]byte, 0, headerLen+len(payload))
	h.buf = append(h.buf, magic...)
	h.u16(Version)
	h.u16(0) // flags, reserved
	h.u64(ir.Fingerprint())
	h.u32(uint32(len(payload)))
	h.u32(crc32.ChecksumIEEE(payload))
	return append(h.buf, payload...)
}

// --- decoding ----------------------------------------------------------------

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errShortSnapshot
	}
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) take(n int) []byte {
	if d.err != nil || n < 0 || d.remaining() < n {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}
func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
func (d *decoder) i32() int32   { return int32(d.u32()) }
func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *decoder) boolean() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = fmt.Errorf("%w: invalid boolean", ErrCorrupt)
		}
		return false
	}
}

func (d *decoder) str() string {
	n := d.u32()
	if d.err == nil && int64(n) > int64(d.remaining()) {
		d.err = errLengthOverflow
		return ""
	}
	return string(d.take(int(n)))
}

// count validates a length-prefixed count against the minimum encoded
// size per element, so a corrupt length field cannot drive a huge
// allocation.
func (d *decoder) count(minElem int) int {
	n := d.u32()
	if d.err == nil && int64(n)*int64(minElem) > int64(d.remaining()) {
		d.err = errLengthOverflow
		return 0
	}
	return int(n)
}

func (d *decoder) strs() []string {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *decoder) i32s() []int32 {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = d.i32()
	}
	return out
}

func (d *decoder) extent() types.Extent {
	inf := d.boolean()
	n := d.i64()
	return types.Extent{N: int(n), Inf: inf}
}

func (d *decoder) shape() types.Shape {
	r := d.extent()
	c := d.extent()
	return types.Shape{R: r, C: c}
}

func (d *decoder) typ() types.Type {
	var t types.Type
	t.I = types.Intrinsic(d.u8())
	t.MinShape = d.shape()
	t.MaxShape = d.shape()
	t.R.Lo = d.f64()
	t.R.Hi = d.f64()
	t.Sp = d.boolean()
	return t
}

func (d *decoder) sig() types.Signature {
	n := d.count(1 + 2*(9+9) + 16 + 1) // one encoded Type
	if d.err != nil || n == 0 {
		return nil
	}
	out := make(types.Signature, n)
	for i := range out {
		out[i] = d.typ()
	}
	return out
}

func (d *decoder) prog() *ir.Prog {
	p := &ir.Prog{}
	p.Name = d.str()
	nins := d.count(2 + 4*4 + 8) // one encoded Instr
	if d.err != nil {
		return nil
	}
	if nins > 0 {
		p.Ins = make([]ir.Instr, nins)
		for i := range p.Ins {
			p.Ins[i] = ir.Instr{
				Op: ir.Op(d.u16()),
				A:  d.i32(), B: d.i32(), C: d.i32(), D: d.i32(),
				Imm: d.f64(),
			}
		}
	}
	p.NumF, p.NumI, p.NumC, p.NumV = d.i32(), d.i32(), d.i32(), d.i32()
	p.SlotsF, p.SlotsI, p.SlotsC, p.SlotsV = d.i32(), d.i32(), d.i32(), d.i32()
	if n := d.count(8); n > 0 && d.err == nil {
		p.ConstF = make([]float64, n)
		for i := range p.ConstF {
			p.ConstF[i] = d.f64()
		}
	}
	if n := d.count(8); n > 0 && d.err == nil {
		p.ConstI = make([]int64, n)
		for i := range p.ConstI {
			p.ConstI[i] = d.i64()
		}
	}
	if n := d.count(16); n > 0 && d.err == nil {
		p.ConstC = make([]complex128, n)
		for i := range p.ConstC {
			re := d.f64()
			im := d.f64()
			p.ConstC[i] = complex(re, im)
		}
	}
	p.Aux = d.i32s()
	p.MathFns = d.strs()
	p.Builtins = d.strs()
	p.Calls = d.strs()
	nvp := d.count(1 + 4)
	if nvp > 0 && d.err == nil {
		p.VPoolStrs = make([]ir.VConstDesc, nvp)
		for i := range p.VPoolStrs {
			isColon := d.boolean()
			s := d.str()
			p.VPoolStrs[i] = ir.VConstDesc{Str: s, IsColon: isColon}
		}
	}
	np := d.count(1 + 4 + 1)
	if np > 0 && d.err == nil {
		p.Params = make([]ir.ParamBinding, np)
		for i := range p.Params {
			p.Params[i] = ir.ParamBinding{
				Bank: ir.Bank(d.u8()),
				Reg:  d.i32(),
				Slot: d.boolean(),
			}
		}
	}
	p.OutRegs = d.i32s()
	p.Allocated = d.boolean()
	if d.err != nil {
		return nil
	}
	return p
}

func (d *decoder) entry() EntryState {
	var es EntryState
	es.SrcHash = d.u64()
	es.Sig = d.sig()
	es.Quality = d.u8()
	es.Speculative = d.boolean()
	es.Hits = d.i64()
	if d.boolean() {
		es.Prog = d.prog()
	}
	es.Ret = d.sig()
	nd := d.count(4 + 8) // minimal Dep
	for i := 0; i < nd && d.err == nil; i++ {
		es.Deps = append(es.Deps, Dep{Name: d.str(), SrcHash: d.u64()})
	}
	return es
}

// DecodeHeader validates only the fixed header and returns the declared
// payload length. It is the first gate Decode applies; the fuzzer
// drives it directly.
func DecodeHeader(data []byte) (payloadLen int, err error) {
	if len(data) < headerLen {
		return 0, errShortSnapshot
	}
	if string(data[:4]) != magic {
		return 0, ErrBadMagic
	}
	version := binary.LittleEndian.Uint16(data[4:6])
	if version != Version {
		return 0, fmt.Errorf("%w: got v%d, want v%d", ErrVersion, version, Version)
	}
	fp := binary.LittleEndian.Uint64(data[8:16])
	if fp != ir.Fingerprint() {
		return 0, ErrFingerprint
	}
	n := binary.LittleEndian.Uint32(data[16:20])
	if int64(n) > maxSnapshotB {
		return 0, errLengthOverflow
	}
	if int(n) != len(data)-headerLen {
		return 0, fmt.Errorf("%w: payload length %d, have %d bytes", ErrCorrupt, n, len(data)-headerLen)
	}
	return int(n), nil
}

// Decode parses a snapshot. Every failure mode — truncation, bit rot,
// foreign builds, hostile length fields — returns an error; Decode
// never panics and never returns a partially valid snapshot.
func Decode(data []byte) (*Snapshot, error) {
	if _, err := DecodeHeader(data); err != nil {
		return nil, err
	}
	payload := data[headerLen:]
	wantCRC := binary.LittleEndian.Uint32(data[20:24])
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, errChecksum
	}

	d := &decoder{buf: payload}
	nf := d.count(4 + 4 + 8 + 4) // minimal FuncState
	s := &Snapshot{}
	if nf > 0 {
		s.Funcs = make([]FuncState, 0, nf)
	}
	for i := 0; i < nf && d.err == nil; i++ {
		var fs FuncState
		fs.Name = d.str()
		fs.Source = d.str()
		fs.SrcHash = d.u64()
		ne := d.count(8 + 4 + 1 + 1 + 8 + 1 + 4 + 4) // minimal EntryState
		for j := 0; j < ne && d.err == nil; j++ {
			fs.Entries = append(fs.Entries, d.entry())
		}
		np := d.count(4 + 4 + 8 + 8) // minimal ProfileSig
		for j := 0; j < np && d.err == nil; j++ {
			var ps ProfileSig
			ps.Key = d.str()
			ps.Observed = d.sig()
			ps.Entries = d.i64()
			ps.BackEdges = d.i64()
			fs.Profile = append(fs.Profile, ps)
		}
		s.Funcs = append(s.Funcs, fs)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.remaining())
	}
	return s, nil
}
