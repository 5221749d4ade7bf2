package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
				rec := encodeRecord(4, []byte("torn"))
				data = append(data, rec[:len(rec)-2]...)
			case "bad-crc":
				rec := encodeRecord(4, []byte("flipped"))
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
	ck := encodeRecord(2, []byte("state@2"))
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

func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 2)
	if err := l.Checkpoint(2, []byte("good")); err != nil {
		t.Fatal(err)
	}
	// A corrupt newer checkpoint (e.g. disk corruption) must not win.
	if err := os.WriteFile(filepath.Join(dir, checkpointName(9)), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seq, state, ok, err := l2.LatestCheckpoint()
	if err != nil || !ok || seq != 2 || string(state) != "good" {
		t.Fatalf("fallback checkpoint = %d %q %v %v", seq, state, ok, err)
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
	if ckpts != 2 {
		t.Fatalf("%d checkpoints retained, want 2", ckpts)
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
