// Package alex is a from-scratch Go reproduction of ALEX — "ALEX:
// Automatic Link Exploration in Linked Data" (El-Roby and Aboulnaga,
// SIGMOD 2015) — together with every substrate it depends on: an
// in-memory RDF triple store with N-Triples I/O, a SPARQL-subset engine,
// a federated query processor with owl:sameAs join provenance, a
// PARIS-style automatic linker for the initial candidate links, and the
// ALEX core itself (Monte-Carlo reinforcement-learned link exploration
// driven by user feedback on query answers).
//
// The typical pipeline is:
//
//	dict := alex.NewDict()
//	g1 := alex.NewGraphWithDict(dict)          // load dataset 1
//	g2 := alex.NewGraphWithDict(dict)          // load dataset 2
//	initial := alex.AutoLink(g1, g2, e1, e2, alex.AutoLinkOptions())
//	sys := alex.NewSystem(g1, g2, e1, e2, alex.LinksOf(initial), alex.DefaultConfig())
//	// answer federated queries, route answer feedback to sys.Feedback,
//	// or drive episodes with a ground-truth oracle:
//	oracle := alex.NewOracle(groundTruth, 0, rand.New(rand.NewSource(1)))
//	sys.Run(oracle, nil)
//	improved := sys.Candidates()
//
// Everything under internal/ is reachable through the aliases and
// constructors exported here.
package alex

import (
	"math/rand"

	"alex/internal/core"
	"alex/internal/eval"
	"alex/internal/federation"
	"alex/internal/feedback"
	"alex/internal/links"
	"alex/internal/paris"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/synth"
)

// RDF data model.
type (
	// Term is an RDF term (IRI, literal, or blank node).
	Term = rdf.Term
	// Triple is an RDF statement.
	Triple = rdf.Triple
	// Graph is an in-memory, dictionary-encoded triple store.
	Graph = rdf.Graph
	// Dict interns terms to dense IDs; share one Dict across the graphs
	// of a linking task.
	Dict = rdf.Dict
	// ID is a dictionary-encoded term identifier.
	ID = rdf.ID
)

// Links and evaluation.
type (
	// Link is a candidate owl:sameAs edge between two entities.
	Link = links.Link
	// ScoredLink is a link with the linker's confidence.
	ScoredLink = links.Scored
	// LinkSet is a set of links.
	LinkSet = links.Set
	// Metrics holds precision/recall/F-measure against a ground truth.
	Metrics = eval.Metrics
	// Series tracks metrics episode by episode.
	Series = eval.Series
)

// The ALEX system.
type (
	// Config holds every tunable of ALEX; see DefaultConfig.
	Config = core.Config
	// System is a running ALEX instance.
	System = core.System
	// EpisodeStats summarizes one feedback episode.
	EpisodeStats = core.EpisodeStats
	// RunResult summarizes a full run to convergence.
	RunResult = core.Result
	// Oracle simulates users answering from a ground truth.
	Oracle = feedback.Oracle
	// Crowd simulates majority-vote feedback from many noisy users.
	Crowd = feedback.Crowd
	// Judger is the feedback interface accepted by System.Run: Oracle,
	// Crowd, or your own feedback channel.
	Judger = feedback.Judger
)

// Federated querying.
type (
	// Federator answers SPARQL queries across linked datasets and
	// records per-answer link provenance.
	Federator = federation.Federator
	// AnswerRow is one federated answer with the links it used.
	AnswerRow = federation.Row
	// AnswerSet holds federated query results.
	AnswerSet = federation.ResultSet
	// Query is a parsed SPARQL query.
	Query = sparql.Query
	// QueryResult holds single-graph SPARQL solutions.
	QueryResult = sparql.Result
)

// Synthetic workloads (the paper's dataset-pair stand-ins).
type (
	// Profile describes a synthetic dataset pair.
	Profile = synth.Profile
	// SynthDataset is a generated dataset pair with ground truth.
	SynthDataset = synth.Dataset
)

// Term constructors.
var (
	// IRI returns an IRI term.
	IRI = rdf.IRI
	// Literal returns a plain string literal.
	Literal = rdf.Literal
	// TypedLiteral returns a literal with a datatype IRI.
	TypedLiteral = rdf.TypedLiteral
	// LangLiteral returns a language-tagged literal.
	LangLiteral = rdf.LangLiteral
	// Blank returns a blank-node term.
	Blank = rdf.Blank
)

// Storage constructors and N-Triples I/O.
var (
	// NewDict returns an empty term dictionary.
	NewDict = rdf.NewDict
	// NewGraph returns a graph with a private dictionary.
	NewGraph = rdf.NewGraph
	// NewGraphWithDict returns a graph over a shared dictionary.
	NewGraphWithDict = rdf.NewGraphWithDict
	// ReadNTriples loads N-Triples into a graph.
	ReadNTriples = rdf.ReadNTriples
	// WriteNTriples serializes a graph as N-Triples.
	WriteNTriples = rdf.WriteNTriples
)

// DefaultConfig returns the paper's default ALEX settings (§7.1).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewSystem builds an ALEX instance over two graphs that share a
// dictionary, the entity lists of both datasets, and the initial
// candidate links from any automatic linker.
func NewSystem(g1, g2 *Graph, entities1, entities2 []ID, initial []Link, cfg Config) *System {
	return core.New(g1, g2, entities1, entities2, initial, cfg)
}

// AutoLinkConfig configures the built-in PARIS-style automatic linker.
type AutoLinkConfig = paris.Options

// AutoLinkOptions returns the linker defaults used in the paper
// (score threshold 0.95).
func AutoLinkOptions() AutoLinkConfig { return paris.NewOptions() }

// AutoLink runs the PARIS-style probabilistic aligner and returns scored
// candidate links. ALEX accepts links from any source; this is the
// baseline the paper evaluates with.
func AutoLink(g1, g2 *Graph, entities1, entities2 []ID, opts AutoLinkConfig) []ScoredLink {
	return paris.Link(g1, g2, entities1, entities2, opts)
}

// LinksOf strips scores from scored links.
func LinksOf(scored []ScoredLink) []Link {
	out := make([]Link, len(scored))
	for i, s := range scored {
		out[i] = s.Link
	}
	return out
}

// NewLinkSet builds a LinkSet from links.
func NewLinkSet(ls ...Link) LinkSet { return links.NewSet(ls...) }

// Evaluate computes precision, recall and F-measure of candidates
// against a ground truth.
func Evaluate(candidates, groundTruth LinkSet) Metrics {
	return eval.Compute(candidates, groundTruth)
}

// NewOracle returns a feedback oracle over a ground truth with the given
// incorrect-feedback rate.
func NewOracle(groundTruth LinkSet, errRate float64, rng *rand.Rand) *Oracle {
	return feedback.NewOracle(groundTruth, errRate, rng)
}

// NewCrowd returns a majority-vote crowd of `voters` users, each erring
// with probability errRate (§6.3's feedback-refinement idea).
func NewCrowd(groundTruth LinkSet, errRate float64, voters int, rng *rand.Rand) *Crowd {
	return feedback.NewCrowd(groundTruth, errRate, voters, rng)
}

// NewFederator returns a federated query processor over a shared
// dictionary. Register sources with AddSource and install the current
// candidate links with SetLinks.
func NewFederator(dict *Dict) *Federator { return federation.New(dict) }

// ApproveAnswer routes positive feedback on a federated answer to ALEX:
// every link the answer used is approved.
func ApproveAnswer(row AnswerRow, sys *System) { federation.Approve(row, sys) }

// RejectAnswer routes negative feedback on a federated answer to ALEX.
func RejectAnswer(row AnswerRow, sys *System) { federation.Reject(row, sys) }

// ParseQuery parses a SPARQL SELECT query (the supported subset covers
// BGPs, FILTER, OPTIONAL, UNION, DISTINCT, ORDER BY, LIMIT, OFFSET).
func ParseQuery(q string) (*Query, error) { return sparql.Parse(q) }

// ExecuteQuery runs a SPARQL query against a single graph: a federation
// of one source with no links.
func ExecuteQuery(g *Graph, q string) (*QueryResult, error) { return federation.Execute(g, q) }

// Profiles lists the built-in synthetic dataset-pair profiles, one per
// pair in the paper's Table 1.
func Profiles() []Profile { return synth.Profiles() }

// ProfileByName returns a built-in profile.
func ProfileByName(name string) (Profile, bool) { return synth.ProfileByName(name) }

// GenerateDataset builds the synthetic dataset pair for a profile.
func GenerateDataset(p Profile) *SynthDataset { return synth.Generate(p) }

// ReadTurtle loads a Turtle document into a graph.
var ReadTurtle = rdf.ReadTurtle

// WriteTurtle serializes a graph as Turtle with the given prefix map.
var WriteTurtle = rdf.WriteTurtle

// ConstructQuery evaluates a SPARQL CONSTRUCT query against a graph and
// returns the constructed triples as a new graph sharing the input's
// dictionary — handy for materializing owl:sameAs links or mapping
// vocabularies.
func ConstructQuery(g *Graph, q string) (*Graph, error) { return federation.Construct(g, q) }

// FeatureStat summarizes what ALEX learned about one feature (a pair of
// predicates); see System.FeatureStats.
type FeatureStat = core.FeatureStat

// FormatFeatureStats renders learned feature statistics with predicate
// names resolved through the dictionary.
func FormatFeatureStats(d *Dict, stats []FeatureStat) string {
	return core.FormatFeatureStats(d, stats)
}
