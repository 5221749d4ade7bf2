package similarity

import (
	"math"
	"time"

	"alex/internal/rdf"
)

// SpaceSim is the similarity function used to build ALEX's feature
// spaces. It is tuned for *discrimination*: scores of unrelated values
// concentrate near 0 so that θ-filtering (paper §6.1) removes most of
// the cross product, while perturbed variants of the same value land on
// a dense continuum below 1.0 that exploration can walk.
//
//   - identical terms score 1;
//   - dates use proximity with a 1-year window;
//   - numbers use absolute-difference proximity with a window of 10;
//   - strings use max(trigram Jaccard, token Jaccard) over normalized text;
//   - IRIs compare by local name with the string rule.
func SpaceSim(a, b rdf.Term) float64 {
	if a == b {
		return 1
	}
	ka, kb := InferKind(a), InferKind(b)
	if ka == KindIRI || kb == KindIRI {
		if ka != kb {
			return 0
		}
		return discriminativeString(a.LocalName(), b.LocalName())
	}
	if ka == KindDate && kb == KindDate {
		da, _ := parseDate(a.Value)
		db, _ := parseDate(b.Value)
		return DateWindow(da, db, 365*24*time.Hour)
	}
	if numericKind(ka) && numericKind(kb) {
		return NumericWindow(mustFloat(a.Value), mustFloat(b.Value), 10)
	}
	if ka != kb {
		return 0
	}
	return discriminativeString(a.Value, b.Value)
}

func discriminativeString(a, b string) float64 {
	na, nb := Normalize(a), Normalize(b)
	if na == nb {
		if na == "" {
			return 0
		}
		return 1
	}
	tg := TrigramJaccard(na, nb)
	tj := TokenJaccard(na, nb)
	if tj > tg {
		return tj
	}
	return tg
}

// DateWindow returns 1 − |a−b|/window clipped to [0, 1].
func DateWindow(a, b time.Time, window time.Duration) float64 {
	d := a.Sub(b)
	if d < 0 {
		d = -d
	}
	if d >= window {
		return 0
	}
	return 1 - float64(d)/float64(window)
}

// NumericWindow returns 1 − |a−b|/window clipped to [0, 1].
func NumericWindow(a, b, window float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) || window <= 0 {
		return 0
	}
	d := math.Abs(a - b)
	if d >= window {
		return 0
	}
	return 1 - d/window
}
