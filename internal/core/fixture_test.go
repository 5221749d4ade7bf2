package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"alex/internal/feedback"
	"alex/internal/links"
	"alex/internal/synth"
)

var updateCheckpoint = flag.Bool("update-checkpoint", false,
	"rewrite "+checkpointFixture+" from this tree instead of restoring it")

// checkpointFixture holds the state fixtureSystem reached after
// fixtureEpisodes episodes of 20 % wrong feedback under an earlier
// learning loop: snapshot version 1 wrote it as a gob stream and
// version 2 re-encoded the state it restored. It is a checkpoint in the
// format alexd keeps on disk, so a change to the partition's state has
// to restore it and write it back byte for byte.
//
// fixtureDigest is stateDigest after restoring that gob stream with
// version 1's Restore and running three more episodes, so the fixture
// has to resume into the same run. -update-checkpoint writes today's
// run instead, whose digest differs.
const (
	checkpointFixture = "testdata/checkpoint-opencyc-lexvo.snap"
	fixtureEpisodes   = 5
	fixtureDigest     = "ed1b92d8cf91792ca4f08fbd2bcc6d6e8a57970eaea286893dd66bd89ff65992"
)

// fixtureSystem builds the system the fixture belongs to: opencyc-lexvo
// at a quarter of its size, from PARIS's links, under the default
// configuration with episodes of 50 items.
func fixtureSystem(t testing.TB) (*System, *synth.Dataset) {
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

// TestCheckpointFixtureRoundTrips restores the fixture, saves it back
// byte for byte, checks it still holds every kind of state, and runs it
// on to the digest it was pinned at.
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
	if err := sys.Restore(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	checkFixtureComplete(t, sys)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("restore and save wrote %d bytes that differ from the fixture's %d", buf.Len(), len(data))
	}
	oracle := feedback.NewOracle(ds.GroundTruth, 0.2, rand.New(rand.NewSource(43)))
	for i := 0; i < 3; i++ {
		sys.RunEpisode(oracle)
	}
	if got := stateDigest(sys); got != fixtureDigest {
		t.Fatalf("three episodes after restore: digest %s, want %s (%d candidates after %d episodes)",
			got, fixtureDigest, sys.CandidateCount(), sys.Episode())
	}
}

// stateDigest hashes what a resumed run's course shows in: the sorted
// candidates, the episode, and the sampler's and every partition's
// stream position.
func stateDigest(sys *System) string {
	var b []byte
	for _, l := range sys.Candidates().Slice() {
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(l.E1)), uint64(l.E2))
	}
	b = binary.AppendUvarint(b, uint64(sys.Episode()))
	b = binary.AppendUvarint(b, sys.rng.pos())
	for _, p := range sys.parts {
		b = binary.AppendUvarint(b, p.rng.pos())
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// checkFixtureComplete: the fixture is only a test of the state it
// holds, so it must hold every kind of it — votes both ways, blacklist
// entries, generation groups with their counts, retired groups and a
// link that was removed and admitted again.
func checkFixtureComplete(t *testing.T, sys *System) {
	t.Helper()
	var pos, neg, black, gen, negc, posc, retired, readmitted int
	for _, p := range sys.parts {
		for _, v := range p.votes {
			pos += min(int(v.pos), 1)
			neg += min(int(v.neg), 1)
		}
		black += p.blacklisted
		for _, g := range p.groups {
			if len(g.links) > 0 {
				gen++
			}
			negc += min(int(g.neg), 1)
			posc += min(int(g.pos), 1)
			if g.retired {
				retired++
			}
		}
		seen := links.NewSet()
		for _, l := range p.order {
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
