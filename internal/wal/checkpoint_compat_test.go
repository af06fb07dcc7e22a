package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"kbt/internal/triple"
)

// encodeCkptPartV2 reproduces the kbtckp02 layout byte for byte: the
// kbtckp03 format minus the per-op idempotency key. It exists only to pin
// the upgrade path — a data dir checkpointed by an older binary must stay
// readable.
func encodeCkptPartV2(prev uint64, ck *Checkpoint) []byte {
	payload := binary.AppendUvarint(nil, prev)
	payload = binary.AppendUvarint(payload, ck.Watermark)
	payload = binary.AppendUvarint(payload, uint64(len(ck.Fingerprint)))
	payload = append(payload, ck.Fingerprint...)
	payload = binary.AppendUvarint(payload, uint64(len(ck.Ops)))
	for i := range ck.Ops {
		op := &ck.Ops[i]
		payload = binary.AppendUvarint(payload, uint64(len(op.Records)))
		for j := range op.Records {
			payload = appendRecord(payload, op.Records[j])
		}
		payload = binary.AppendUvarint(payload, uint64(op.Refreshes))
	}
	buf := make([]byte, 0, len(ckptMagicV2)+12+len(payload))
	buf = append(buf, ckptMagicV2...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// TestCheckpointV2Compat: a kbtckp02 base written by an earlier binary
// decodes (ops carry empty keys), a current-format delta appends onto it,
// and an unknown magic is still rejected as corrupt.
func TestCheckpointV2Compat(t *testing.T) {
	dir := t.TempDir()
	rec := func(i int) triple.Record {
		return triple.Record{Extractor: "E", Website: "w", Page: "p",
			Subject: fmt.Sprintf("s%d", i), Predicate: "q", Object: "o", Confidence: 0.5}
	}
	base := &Checkpoint{
		Watermark:   42,
		Fingerprint: "fp",
		Ops: []CheckpointOp{
			{Records: []triple.Record{rec(0), rec(1)}, Refreshes: 1},
			{Refreshes: 2},
		},
	}
	if err := writeCkptFile(OSFS{}, dir, CheckpointFile, encodeCkptPartV2(0, base)); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadCheckpoint(nil, dir)
	if err != nil || !ok {
		t.Fatalf("v2 base read: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, base) {
		t.Fatalf("v2 base mismatch: %+v", got)
	}

	// The next checkpoint of an upgraded binary appends in the current
	// format; the mixed-version chain merges with the delta's key intact.
	delta := &Checkpoint{Watermark: 50, Fingerprint: "fp",
		Ops: []CheckpointOp{{Records: []triple.Record{rec(2)}, Refreshes: 1, Key: "k-50"}}}
	if err := WriteCheckpointDelta(nil, dir, 42, delta); err != nil {
		t.Fatal(err)
	}
	merged, ok, err := ReadCheckpoint(nil, dir)
	if err != nil || !ok {
		t.Fatalf("mixed chain read: ok=%v err=%v", ok, err)
	}
	if merged.Watermark != 50 || len(merged.Ops) != 3 {
		t.Fatalf("mixed chain: watermark=%d ops=%d", merged.Watermark, len(merged.Ops))
	}
	if merged.Ops[0].Key != "" || merged.Ops[1].Key != "" || merged.Ops[2].Key != "k-50" {
		t.Fatalf("mixed chain keys: %+v", merged.Ops)
	}

	// A magic from the future (or garbage) is still corruption.
	bad := encodeCkptPartV2(0, base)
	copy(bad, "kbtckp99")
	if err := writeCkptFile(OSFS{}, dir, CheckpointFile, bad); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(nil, dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown magic accepted: %v", err)
	}
}

// encodeCkptPartTwoPass is the kbtckp03 framing built the plain way: the
// payload first, then a second framed copy. It pins encodeCkptPart's bytes.
func encodeCkptPartTwoPass(prev uint64, ck *Checkpoint) []byte {
	payload := binary.AppendUvarint(nil, prev)
	payload = binary.AppendUvarint(payload, ck.Watermark)
	payload = binary.AppendUvarint(payload, uint64(len(ck.Fingerprint)))
	payload = append(payload, ck.Fingerprint...)
	payload = binary.AppendUvarint(payload, uint64(len(ck.Ops)))
	for i := range ck.Ops {
		op := &ck.Ops[i]
		payload = binary.AppendUvarint(payload, uint64(len(op.Records)))
		for j := range op.Records {
			payload = appendRecord(payload, op.Records[j])
		}
		payload = binary.AppendUvarint(payload, uint64(op.Refreshes))
		payload = binary.AppendUvarint(payload, uint64(len(op.Key)))
		payload = append(payload, op.Key...)
	}
	buf := append([]byte(ckptMagic), make([]byte, 12)...)
	binary.LittleEndian.PutUint32(buf[len(ckptMagic):], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint64(buf[len(ckptMagic)+4:], uint64(len(payload)))
	return append(buf, payload...)
}

// TestEncodeCkptPartOneBuffer: the single-buffer encoder writes exactly the
// bytes of the two-pass framing — across uvarint widths from one to several
// bytes in every length and counter — and builds a part in at most two
// allocations however many records it carries.
func TestEncodeCkptPartOneBuffer(t *testing.T) {
	long := string(make([]byte, 300)) // a two-byte length prefix
	var recs []triple.Record
	for i := range 200 {
		recs = append(recs, triple.Record{
			Extractor: fmt.Sprintf("E%d", i%3), Pattern: "p", Website: "w.com", Page: "w.com/" + long[:i],
			Subject: fmt.Sprintf("S%d", i), Predicate: "pred", Object: "o", Confidence: float64(i) / 200,
		})
	}
	for _, ck := range []*Checkpoint{
		{},
		{Watermark: 1, Fingerprint: "fp", Ops: []CheckpointOp{{Refreshes: 1}}},
		{Watermark: 1 << 40, Fingerprint: long, Ops: []CheckpointOp{
			{Records: recs, Refreshes: 300, Key: "k1"},
			{Key: long},
			{Records: recs[:1]},
		}},
	} {
		for _, prev := range []uint64{0, 127, 128, 1 << 63} {
			got, want := encodeCkptPart(prev, ck), encodeCkptPartTwoPass(prev, ck)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("prev %d, %d ops: single-buffer part differs from the two-pass framing", prev, len(ck.Ops))
			}
			if len(got) != cap(got) {
				t.Fatalf("prev %d: part sized %d, used %d", prev, cap(got), len(got))
			}
		}
	}
	ck := &Checkpoint{Watermark: 9, Fingerprint: "fp", Ops: []CheckpointOp{{Records: recs, Refreshes: 1}}}
	if n := testing.AllocsPerRun(20, func() { encodeCkptPart(3, ck) }); n > 2 {
		t.Fatalf("encodeCkptPart allocates %v times per part, want ≤ 2", n)
	}
}
