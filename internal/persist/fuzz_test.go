package persist

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the snapshot decoder. The only
// acceptable outcomes are a clean decode or a clean error — never a
// panic, and never an attempt to allocate from a hostile length field
// (the 1 GiB cap plus per-count minimum-element bounds enforce that).
func FuzzDecode(f *testing.F) {
	valid := Encode(testSnapshot())
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(valid[:headerLen])
	f.Add(valid[:len(valid)-3])

	// Seed header mutants: each fixed header field individually damaged.
	for _, mut := range []func(b []byte){
		func(b []byte) { b[0] = 'X' },                                       // magic
		func(b []byte) { binary.LittleEndian.PutUint16(b[4:6], Version^1) }, // version
		func(b []byte) { binary.LittleEndian.PutUint16(b[4:6], Version-1) }, // the previous version
		func(b []byte) { binary.LittleEndian.PutUint16(b[6:8], 0xffff) },    // flags
		func(b []byte) { binary.LittleEndian.PutUint64(b[8:16], 1) },        // fingerprint
		func(b []byte) { binary.LittleEndian.PutUint32(b[16:20], 1<<30) },   // payload len
		func(b []byte) { binary.LittleEndian.PutUint32(b[20:24], 0) },       // crc
	} {
		m := bytes.Clone(valid)
		mut(m)
		f.Add(m)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		// A successful decode must re-encode to a decodable snapshot.
		if _, err := Decode(Encode(s)); err != nil {
			t.Fatalf("decoded snapshot does not re-encode cleanly: %v", err)
		}
	})
}
