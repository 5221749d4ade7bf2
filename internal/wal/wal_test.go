package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func appendN(t *testing.T, l *Log, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		seq, err := l.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d: seq = %d", i, seq)
		}
	}
}

func replayAll(t *testing.T, l *Log, after uint64) []Record {
	t.Helper()
	var out []Record
	n, err := l.Replay(after, func(r Record) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != len(out) {
		t.Fatalf("replay count %d != %d", n, len(out))
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := replayAll(t, l2, 0)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || string(r.Data) != fmt.Sprintf("record-%d", i+1) {
			t.Fatalf("record %d = %d %q", i, r.Seq, r.Data)
		}
	}
	if l2.LastSeq() != 5 {
		t.Fatalf("last seq = %d", l2.LastSeq())
	}
	// Replay consumes: a second call yields nothing.
	if again := replayAll(t, l2, 0); len(again) != 0 {
		t.Fatalf("second replay returned %d records", len(again))
	}
	// New appends continue the sequence.
	appendN(t, l2, 6, 6)
}

// TestAppendRefusesOversizedRecord: a record the scanner would read as
// a torn tail is refused, not acked, and the journal takes the next
// record: everything acked around the refusal replays after a reopen.
func TestAppendRefusesOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(make([]byte, maxRecord+1)); err == nil {
		t.Fatal("an oversized record was acked")
	}
	if seq, err := l.Append([]byte("after")); err != nil || seq != 2 {
		t.Fatalf("append after the refusal: seq %d, err %v; want 2, nil", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []string
	for _, r := range replayAll(t, l2, 0) {
		got = append(got, fmt.Sprintf("%d:%s", r.Seq, r.Data))
	}
	if fmt.Sprint(got) != "[1:first 2:after]" {
		t.Fatalf("replayed %v, want [1:first 2:after]", got)
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []string{"garbage", "partial-header", "partial-record", "bad-crc"} {
		t.Run(cut, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 1, 3)
			l.Close()

			path := filepath.Join(dir, journalName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			switch cut {
			case "garbage":
				data = append(data, []byte("\x99\x88\x77")...)
			case "partial-header":
				data = append(data, 0x0a, 0x00) // 2 of 16 header bytes
			case "partial-record":
				rec := EncodeRecord(4, []byte("torn"))
				data = append(data, rec[:len(rec)-2]...)
			case "bad-crc":
				rec := EncodeRecord(4, []byte("flipped"))
				rec[len(rec)-1] ^= 0xff
				data = append(data, rec...)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			recs := replayAll(t, l2, 0)
			if len(recs) != 3 {
				t.Fatalf("replayed %d records, want the 3 intact ones", len(recs))
			}
			// The bad tail is gone from disk and appends resume cleanly.
			appendN(t, l2, 4, 4)
			l2.Close()
			l3, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer l3.Close()
			if recs := replayAll(t, l3, 0); len(recs) != 4 {
				t.Fatalf("after repair+append: %d records, want 4", len(recs))
			}
		})
	}
}

func TestCheckpointAndIdempotentReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 4)
	if err := l.Checkpoint(4, []byte("state@4")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, 7)
	l.Close()

	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seq, state, ok, err := l2.LatestCheckpoint()
	if err != nil || !ok || seq != 4 || string(state) != "state@4" {
		t.Fatalf("checkpoint = %d %q %v %v", seq, state, ok, err)
	}
	recs := replayAll(t, l2, seq)
	if len(recs) != 3 || recs[0].Seq != 5 {
		t.Fatalf("tail replay = %+v", recs)
	}
}

// TestReplaySkipsCheckpointedRecords covers the crash window between a
// durable checkpoint and the journal reset: the journal still holds
// records the checkpoint absorbed, and replay must skip them.
func TestReplaySkipsCheckpointedRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 3)
	// Forge the crash window: checkpoint written by hand (atomic file),
	// journal untouched.
	ck := EncodeRecord(2, []byte("state@2"))
	if err := os.WriteFile(filepath.Join(dir, checkpointName(2)), ck, 0o644); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seq, _, ok, _ := l2.LatestCheckpoint()
	if !ok || seq != 2 {
		t.Fatalf("checkpoint seq = %d ok=%v", seq, ok)
	}
	recs := replayAll(t, l2, seq)
	if len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("replay after checkpoint = %+v, want only seq 3", recs)
	}
}

// TestCorruptCheckpointFailsRecovery: the journal is reset after every
// checkpoint, so the records between an older checkpoint and the newest
// live only in the newest. One that does not read back must fail
// LatestCheckpoint by name; loading the older one instead would
// silently drop records 3 and 4 here. A junk file named as a newer
// checkpoint fails the same way.
func TestCorruptCheckpointFailsRecovery(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, dir string) string // returns the file to name
	}{
		{"flipped byte", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, checkpointName(4))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return checkpointName(4)
		}},
		{"junk newer file", func(t *testing.T, dir string) string {
			if err := os.WriteFile(filepath.Join(dir, checkpointName(9)), []byte("junk"), 0o644); err != nil {
				t.Fatal(err)
			}
			return checkpointName(9)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 1, 2)
			if err := l.Checkpoint(2, []byte("state@2")); err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 3, 4)
			if err := l.Checkpoint(4, []byte("state@4")); err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 5, 5)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			bad := tc.corrupt(t, dir)

			l2, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			seq, _, ok, err := l2.LatestCheckpoint()
			if err == nil {
				t.Fatalf("LatestCheckpoint = seq %d (ok %v) over a corrupt newest checkpoint; records after it are lost", seq, ok)
			}
			if !strings.Contains(err.Error(), bad) {
				t.Fatalf("LatestCheckpoint error %q does not name %s", err, bad)
			}
		})
	}
}

func TestCheckpointPrunes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 5; i++ {
		appendN(t, l, i, i)
		if err := l.Checkpoint(uint64(i), []byte("s")); err != nil {
			t.Fatal(err)
		}
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, e := range names {
		if _, ok := parseCheckpointName(e.Name()); ok {
			ckpts++
		}
	}
	if ckpts != 1 {
		t.Fatalf("%d checkpoints retained, want 1", ckpts)
	}
}

func TestSeqMonotonicAcrossCheckpointOnlyRestart(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 3)
	if err := l.Checkpoint(3, []byte("s")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// The journal is empty now; a reopened log must still continue at 4,
	// never reissue sequence numbers the checkpoint covers.
	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 3 {
		t.Fatalf("last seq after restart = %d, want 3", l2.LastSeq())
	}
	appendN(t, l2, 4, 4)
}

// failOpenFS fails every Open with a non-NotExist error, standing in
// for a permission or transient I/O failure on an existing journal.
type failOpenFS struct {
	FS
	err error
}

func (f failOpenFS) Open(name string) (io.ReadCloser, error) { return nil, f.err }

// TestOpenErrorFailsLoudly: an unreadable existing journal must abort
// Open. Swallowing the error as "no journal yet" would silently discard
// acked records and reissue their sequence numbers over the stale file.
func TestOpenErrorFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 3)
	l.Close()

	_, err = Open(dir, failOpenFS{FS: OS{}, err: fmt.Errorf("injected: permission denied")})
	if err == nil {
		t.Fatal("Open ignored a failing journal read over durable records")
	}
	// A genuinely missing journal still opens as an empty log.
	l2, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatalf("fresh dir: %v", err)
	}
	defer l2.Close()
	if recs := replayAll(t, l2, 0); len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
}

func TestEmptyAndLargePayloads(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 1<<20)
	if _, err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(big); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := replayAll(t, l2, 0)
	if len(recs) != 2 || len(recs[0].Data) != 0 || !bytes.Equal(recs[1].Data, big) {
		t.Fatalf("payload round trip failed: %d records", len(recs))
	}
}

// TestFieldsFailOnce: the first malformed field fails the reader, every
// later read returns zero, and Done reports that first error; a count
// past the bytes left and bytes left over are errors too.
func TestFieldsFailOnce(t *testing.T) {
	whole := binary.AppendUvarint(nil, 2)
	whole = binary.AppendUvarint(whole, 300)
	whole = append(binary.AppendUvarint(whole, 3), "abc"...)
	f := NewFields(whole)
	if c, v, s := f.Count(), f.Uvarint(), f.Text(); c != 2 || v != 300 || s != "abc" || f.Done() != nil {
		t.Fatalf("read %d %d %q, %v; want 2 300 \"abc\", nil", c, v, s, f.Done())
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		read    func(*Fields)
		want    string
	}{
		{"count past the end", binary.AppendUvarint(nil, 1<<40), func(f *Fields) { f.Count() }, "count 1099511627776 with 0 bytes left"},
		{"string past the end", append(binary.AppendUvarint(nil, 4), "abc"...), func(f *Fields) { f.Text() }, "count 4 with 3 bytes left"},
		{"cut uvarint", []byte{0x80}, func(f *Fields) { f.Uvarint() }, "bad uvarint"},
	} {
		f := NewFields(tc.payload)
		tc.read(f)
		if v := f.Uvarint(); v != 0 {
			t.Errorf("%s: a read after the failure returned %d", tc.name, v)
		}
		if err := f.Done(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Done = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	f = NewFields([]byte{1, 2})
	f.Uvarint()
	if err := f.Done(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Errorf("a byte left over: Done = %v, want 1 trailing bytes", err)
	}
}
