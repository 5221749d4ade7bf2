package core

import (
	"bytes"
	"encoding/gob"
	"flag"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"alex/internal/feedback"
	"alex/internal/links"
	"alex/internal/synth"
)

var updateCheckpoint = flag.Bool("update-checkpoint", false,
	"rewrite "+checkpointFixture+" from this tree instead of restoring it")

// checkpointFixture was written by fixtureSystem after fixtureEpisodes
// episodes of 20 % wrong feedback. It is a checkpoint in the format
// alexd keeps on disk, so a change to the partition's state has to
// restore it and write it back field for field.
const (
	checkpointFixture = "testdata/checkpoint-opencyc-lexvo.gob"
	fixtureEpisodes   = 5
)

// fixtureSystem builds the system the fixture belongs to: opencyc-lexvo
// at a quarter of its size, from PARIS's links, under the default
// configuration with episodes of 50 items.
func fixtureSystem(t *testing.T) (*System, *synth.Dataset) {
	t.Helper()
	prof, ok := synth.ProfileByName("opencyc-lexvo")
	if !ok {
		t.Fatal("missing profile opencyc-lexvo")
	}
	prof = prof.Scale(0.25)
	ds := synth.Generate(prof)
	cfg := DefaultConfig()
	cfg.EpisodeSize = 50
	cfg.Partitions = prof.Partitions
	cfg.Seed = prof.Seed
	return New(ds.G1, ds.G2, ds.Entities1, ds.Entities2, initialLinks(ds), cfg), ds
}

// TestCheckpointFixtureRoundTrips restores a checkpoint an earlier
// version of the partition state wrote, saves it again and compares
// every decoded partitionWire field. Old checkpoints have to keep
// loading with nothing lost, since snapshotVersion did not change.
func TestCheckpointFixtureRoundTrips(t *testing.T) {
	sys, ds := fixtureSystem(t)
	if *updateCheckpoint {
		oracle := feedback.NewOracle(ds.GroundTruth, 0.2, rand.New(rand.NewSource(42)))
		for i := 0; i < fixtureEpisodes; i++ {
			sys.RunEpisode(oracle)
		}
		var buf bytes.Buffer
		if err := sys.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(checkpointFixture, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(checkpointFixture)
	if err != nil {
		t.Fatal(err)
	}
	want := decodeWire(t, data)
	checkFixtureComplete(t, want)

	if err := sys.Restore(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got := decodeWire(t, buf.Bytes())
	if got.Version != want.Version || got.Episode != want.Episode || got.RelaxedAt != want.RelaxedAt || got.SamplerPos != want.SamplerPos {
		t.Fatalf("header %+v, want %+v", got, want)
	}
	if len(got.Parts) != len(want.Parts) {
		t.Fatalf("%d partitions, want %d", len(got.Parts), len(want.Parts))
	}
	for pi := range want.Parts {
		g, w := reflect.ValueOf(got.Parts[pi]), reflect.ValueOf(want.Parts[pi])
		for f := 0; f < w.NumField(); f++ {
			if !reflect.DeepEqual(g.Field(f).Interface(), w.Field(f).Interface()) {
				t.Errorf("partition %d: %s differs after restore and save", pi, w.Type().Field(f).Name)
			}
		}
	}
}

// decodeWire decodes a snapshot with its action-value tables in state
// order. Save writes them in map order; within a state the actions keep
// their order, which is argmax's tie-break.
func decodeWire(t *testing.T, data []byte) systemWire {
	t.Helper()
	var w systemWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		t.Fatal(err)
	}
	for _, p := range w.Parts {
		sort.SliceStable(p.QTable, func(i, j int) bool { return linkLess(p.QTable[i].State, p.QTable[j].State) })
		sort.Slice(p.Policy, func(i, j int) bool { return linkLess(p.Policy[i].State, p.Policy[j].State) })
	}
	return w
}

// checkFixtureComplete: the fixture is only a test of the state it
// holds, so it must hold every kind of it — votes both ways, blacklist
// entries, generation groups with their counts, retired groups and a
// link that was removed and admitted again.
func checkFixtureComplete(t *testing.T, w systemWire) {
	t.Helper()
	var pos, neg, black, gen, negc, posc, retired, readmitted int
	for _, p := range w.Parts {
		pos += len(p.PosVotes)
		neg += len(p.NegVotes)
		black += len(p.Blacklist)
		gen += len(p.Generated)
		negc += len(p.NegCount)
		posc += len(p.PosCount)
		retired += len(p.RolledBack)
		seen := links.NewSet()
		for _, l := range p.Order {
			if seen.Has(l) {
				readmitted++
			}
			seen.Add(l)
		}
	}
	if pos == 0 || neg == 0 || black == 0 || gen == 0 || negc == 0 || posc == 0 || retired == 0 || readmitted == 0 {
		t.Fatalf("fixture lacks a kind of state: %d approved, %d rejected, %d blacklisted links; %d groups, %d with rejections, %d with approvals, %d retired; %d re-admissions",
			pos, neg, black, gen, negc, posc, retired, readmitted)
	}
}
