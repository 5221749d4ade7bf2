package core

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"alex/internal/eval"
	"alex/internal/feedback"
)

func TestSnapshotRoundTrip(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	oracle := feedback.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(3)))

	// Learn for a few episodes, snapshot, learn more.
	for i := 0; i < 3; i++ {
		sys.RunEpisode(oracle)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	candsAtSave := sys.Candidates()
	epAtSave := sys.Episode()

	for i := 0; i < 3; i++ {
		sys.RunEpisode(oracle)
	}
	if sys.Candidates().SymmetricDiff(candsAtSave) == 0 && sys.Episode() == epAtSave {
		t.Skip("state did not change after snapshot; nothing to verify")
	}

	// Restore into a fresh, identically constructed system.
	restored := newTestSystem(t, ds, nil)
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Episode() != epAtSave {
		t.Fatalf("episode = %d, want %d", restored.Episode(), epAtSave)
	}
	if restored.Candidates().SymmetricDiff(candsAtSave) != 0 {
		t.Fatalf("restored candidates differ by %d links", restored.Candidates().SymmetricDiff(candsAtSave))
	}

	// The restored system must keep learning sensibly.
	oracle2 := feedback.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(9)))
	res := restored.Run(oracle2, nil)
	m := eval.Compute(restored.Candidates(), ds.GroundTruth)
	if res.Episodes <= epAtSave {
		t.Fatalf("restored system did not continue: %d episodes", res.Episodes)
	}
	if m.F1 < 0.5 {
		t.Fatalf("restored system degraded: %v", m)
	}
}

func TestSnapshotPreservesLearnedPolicy(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	oracle := feedback.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(3)))
	for i := 0; i < 4; i++ {
		sys.RunEpisode(oracle)
	}

	// Find a state with a learned greedy action.
	var found bool
	for _, p := range sys.parts {
		for l := range p.cands {
			if a, ok := p.ctrl.GreedyAction(l); ok {
				var buf bytes.Buffer
				if err := sys.Save(&buf); err != nil {
					t.Fatal(err)
				}
				restored := newTestSystem(t, ds, nil)
				if err := restored.Restore(&buf); err != nil {
					t.Fatal(err)
				}
				ra, rok := restored.parts[sys.partitionOf(l)].ctrl.GreedyAction(l)
				if !rok || ra != a {
					t.Fatalf("policy lost: %v/%v vs %v/true", ra, rok, a)
				}
				// Q values preserved too.
				if got, want := restored.parts[sys.partitionOf(l)].ctrl.Q(l, a), p.ctrl.Q(l, a); got != want {
					t.Fatalf("Q = %f, want %f", got, want)
				}
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no learned policy after 4 episodes")
	}
}

func TestRestoreRejectsPartitionMismatch(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := newTestSystem(t, ds, func(c *Config) { c.Partitions = 3 })
	if err := other.Restore(&buf); err == nil {
		t.Fatal("partition mismatch accepted")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	if err := sys.Restore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// FuzzRestore feeds Restore mutations of real snapshots. Restore never
// panics; a failed Restore changes nothing Save would write; and what
// an accepted snapshot restores to saves, restores and saves again to
// the same bytes.
func FuzzRestore(f *testing.F) {
	sys, ds := fixtureSystem(f)
	save := func() []byte {
		var buf bytes.Buffer
		if err := sys.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(save())
	data, err := os.ReadFile(checkpointFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	if err := sys.Restore(bytes.NewReader(data)); err != nil {
		f.Fatal(err)
	}
	sys.RunEpisode(feedback.NewOracle(ds.GroundTruth, 0.2, rand.New(rand.NewSource(43))))
	f.Add(save())
	f.Fuzz(func(t *testing.T, snap []byte) {
		// Restore seeks every stream from its seed, a few nanoseconds
		// a draw: a mutated position of 2^40 would take the run, and
		// minimizing inputs with ones near 2^24 stalls it.
		if d, err := decodeSnapshot(snap, len(sys.parts)); err == nil {
			for _, st := range d.parts {
				if max(d.samplerPos, st.pos) > 1<<20 {
					t.Skip("a stream position past 2^20")
				}
			}
		}
		before := save()
		if err := sys.Restore(bytes.NewReader(snap)); err != nil {
			if after := save(); !bytes.Equal(after, before) {
				t.Fatalf("a failed Restore (%v) changed the state", err)
			}
			return
		}
		once := save()
		if err := sys.Restore(bytes.NewReader(once)); err != nil {
			t.Fatalf("Restore refused what Save wrote: %v", err)
		}
		if twice := save(); !bytes.Equal(twice, once) {
			t.Fatalf("save, restore and save wrote %d bytes, then %d that differ", len(once), len(twice))
		}
	})
}

// TestFailedRestoreChangesNothing: a snapshot cut anywhere, or with its
// last byte changed, is refused, and the system keeps every byte of the
// state it had — partitions decoded before the fault included.
func TestFailedRestoreChangesNothing(t *testing.T) {
	sys, _ := fixtureSystem(t)
	var before bytes.Buffer
	if err := sys.Save(&before); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(checkpointFixture)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{append(append([]byte(nil), data[:len(data)-1]...), 0x80)}
	for cut := 0; cut < len(data); cut++ {
		bad = append(bad, data[:cut])
	}
	for _, snap := range bad {
		if err := sys.Restore(bytes.NewReader(snap)); err == nil {
			t.Fatalf("a %d-byte snapshot cut from %d bytes was restored", len(snap), len(data))
		}
		var after bytes.Buffer
		if err := sys.Save(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after.Bytes(), before.Bytes()) {
			t.Fatalf("refusing a %d-byte snapshot changed the state", len(snap))
		}
	}
}
