package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/types"
)

// extentSig holds the extents the codec must keep apart: ∞, 0, 1 and a
// finite count beyond int32.
var extentSig = types.Signature{{
	I:        types.IReal,
	MinShape: types.Shape{R: types.Fin(0), C: types.Fin(1)},
	MaxShape: types.Shape{R: types.Fin(3e9), C: types.InfExt},
	R:        types.MkRange(0, 1),
}}

// extentSigHex is extentSig as the encoder writes it: a count, the
// intrinsic, four extents as an Inf flag and a little-endian int64 (0
// for ∞), the range bounds, and the sparsity flag.
const extentSigHex = "01000000" + "03" +
	"00" + "0000000000000000" + "00" + "0100000000000000" +
	"00" + "005ed0b200000000" + "01" + "0000000000000000" +
	"0000000000000000" + "000000000000f03f" +
	"00"

// TestCodecExtentBytes pins the snapshot bytes of extents, so a change
// of the in-memory representation cannot change the format under the
// same Version.
func TestCodecExtentBytes(t *testing.T) {
	var e encoder
	e.sig(extentSig)
	if got := hex.EncodeToString(e.buf); got != extentSigHex {
		t.Fatalf("encoded signature\n got %s\nwant %s", got, extentSigHex)
	}
	d := &decoder{buf: e.buf}
	if got := d.sig(); d.err != nil || !reflect.DeepEqual(got, extentSig) {
		t.Fatalf("decoded %v (err %v), want %v", got, d.err, extentSig)
	}
}

// nonCanonicalExtents returns snapshots whose one marked extent is
// re-written in the two forms the encoder never produces: ∞ with a
// nonzero value, and a finite value equal to ∞'s.
func nonCanonicalExtents(tb testing.TB) [][]byte {
	const mark = 0x0123456789ab
	s := testSnapshot()
	fs := &s.Funcs[0]
	fs.Entries[0].Sig = append(types.Signature{types.Exact(types.IReal, mark, 1, types.RangeTop)}, fs.Entries[0].Sig...)
	payload := Encode(s)[headerLen:]
	want := binary.LittleEndian.AppendUint64([]byte{0}, mark)
	at := bytes.Index(payload, want)
	if at < 0 {
		tb.Fatal("marked extent not found in the payload")
	}
	var out [][]byte
	for _, ext := range []struct {
		inf byte
		n   uint64
	}{{1, 5}, {0, math.MaxInt64}} {
		p := bytes.Clone(payload)
		p[at] = ext.inf
		binary.LittleEndian.PutUint64(p[at+1:], ext.n)
		out = append(out, frame(magic, p))
	}
	return out
}

func TestDecodeRejectsNonCanonicalExtents(t *testing.T) {
	for i, data := range nonCanonicalExtents(t) {
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("form %d: want ErrCorrupt, got %v", i, err)
		}
	}
}
