package persist

import "errors"

// Entry records are the cluster replication wire format: one function's
// source plus (optionally) one compiled repository entry, framed with
// the same guards as a whole-file snapshot — magic, format version, IR
// fingerprint, payload length, payload CRC. A record that fails any
// guard is rejected as a unit; the receiver drops it and counts it,
// never crashes and never applies a partial record. Reusing the
// snapshot codec's field encoders means a record's EntryState is
// byte-compatible with the snapshot's, so the two formats can never
// drift apart silently.
//
// A record with a nil Entry is a source broadcast: it carries a
// (re)definition so peers can resolve the function before any compiled
// entry for it replicates. DefTime is the origin's source-publish time;
// receivers apply a differing source only when it is strictly newer
// than their own (last-writer-wins, with the local definition winning
// ties), so a delayed replica of an old definition can never clobber a
// newer one.

// recordMagic distinguishes a single-entry record from a whole-file
// snapshot ("MJRP"): feeding one to the other decoder fails fast on the
// first four bytes.
const recordMagic = "MJRE"

// ErrBadRecord reports data that is not an entry record at all.
var ErrBadRecord = errors.New("persist: not a replication record (bad magic)")

// EntryRecord is one replication unit: the function's identity and
// source (always), and one compiled entry (when Entry is non-nil).
type EntryRecord struct {
	// Origin is the node ID of the publisher (journal/debug surface
	// only; it never affects validation).
	Origin string
	// Func is the function name; Source the full registered source text
	// (subfunctions included); SrcHash its FNV-64a hash, which must
	// match Source exactly.
	Func    string
	Source  string
	SrcHash uint64
	// DefTime is the origin's source-publish wall-clock time in unix
	// nanoseconds (the last-writer-wins tiebreak for redefinitions).
	DefTime int64
	// Entry is the compiled entry, nil for a source-only broadcast. Its
	// SrcHash must match the record's.
	Entry *EntryState
}

// EncodeRecord serializes one record with the full header guards.
func EncodeRecord(rec *EntryRecord) []byte {
	var e encoder
	e.str(rec.Origin)
	e.str(rec.Func)
	e.str(rec.Source)
	e.u64(rec.SrcHash)
	e.i64(rec.DefTime)
	e.boolean(rec.Entry != nil)
	if rec.Entry != nil {
		e.entry(*rec.Entry)
	}
	return frame(recordMagic, e.buf)
}

// DecodeRecord parses one record. Every failure mode — wrong magic,
// foreign build, unknown version, truncation, bit rot, hostile length
// fields, trailing bytes — returns an error; it never panics and never
// returns a partially valid record.
func DecodeRecord(data []byte) (*EntryRecord, error) {
	payload, err := unframe(recordMagic, data)
	if err != nil {
		return nil, err
	}
	d := &decoder{buf: payload}
	rec := &EntryRecord{}
	rec.Origin = d.str()
	rec.Func = d.str()
	rec.Source = d.str()
	rec.SrcHash = d.u64()
	rec.DefTime = d.i64()
	if d.boolean() {
		es := d.entry()
		rec.Entry = &es
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return rec, nil
}

// FuncDigest summarizes one function for anti-entropy reconciliation:
// its source hash and definition time, plus the exact-signature keys of
// its live compiled entries. Peers exchange digests and push only what
// the other side lacks.
type FuncDigest struct {
	SrcHash uint64   `json:"src_hash"`
	DefTime int64    `json:"def_time"`
	Entries []string `json:"entries,omitempty"`
}
