package memsim

import (
	"math/rand"
	"testing"

	"repro/internal/buf"
)

// legacyLRU is the reference cache-warmth model State replaced: the
// LRU order as a slice of regions, a re-touch removing the region's old
// position by a linear scan. The differential below holds State's
// lazily pruned log to its eviction order exactly.
type legacyLRU struct {
	llc      int64
	resident map[buf.Region]int64
	order    []buf.Region
	used     int64
}

func (s *legacyLRU) touch(r buf.Region, n int64) {
	if n <= 0 {
		return
	}
	if n > s.llc {
		n = s.llc
	}
	if old, ok := s.resident[r]; ok {
		s.used -= old
		for i, x := range s.order {
			if x == r {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	s.resident[r] = n
	s.order = append(s.order, r)
	s.used += n
	for s.used > s.llc && len(s.order) > 1 {
		oldest := s.order[0]
		if oldest == r {
			break
		}
		s.order = s.order[1:]
		s.used -= s.resident[oldest]
		delete(s.resident, oldest)
	}
	if s.used > s.llc {
		s.resident[r] -= s.used - s.llc
		s.used = s.llc
	}
}

func (s *legacyLRU) residency(r buf.Region, n int64) float64 {
	if n <= 0 {
		return 0
	}
	res := s.resident[r]
	if res >= n {
		return 1
	}
	return float64(res) / float64(n)
}

// TestLRUDifferential replays random touch/flush/residency sequences
// on State and on the legacy LRU: residency answers, occupancy and the
// resident set must agree after every step, so eviction order, used
// bytes and every virtual time priced from residency stay identical;
// the touch log stays within its compaction bound.
func TestLRUDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := testHierarchy()
		h.LLC = 1 << (10 + rng.Intn(6))
		s := NewState(h)
		ref := &legacyLRU{llc: h.LLC, resident: make(map[buf.Region]int64)}
		regions := 2 + rng.Intn(60)
		for op := 0; op < 5000; op++ {
			r := buf.Region(1 + rng.Intn(regions))
			n := rng.Int63n(h.LLC/2+1) - 16
			if rng.Intn(50) == 0 {
				n = h.LLC + rng.Int63n(h.LLC) // larger than the cache
			}
			switch k := rng.Intn(100); {
			case k < 2:
				s.Flush()
				ref.resident, ref.order, ref.used = make(map[buf.Region]int64), nil, 0
			case k < 60:
				s.Touch(r, n)
				ref.touch(r, n)
			default:
				if got, want := s.Residency(r, n), ref.residency(r, n); got != want {
					t.Fatalf("seed %d op %d: Residency(%d, %d) = %v, legacy %v", seed, op, r, n, got, want)
				}
			}
			if s.used != ref.used || len(s.resident) != len(ref.resident) {
				t.Fatalf("seed %d op %d: used %d over %d regions, legacy %d over %d",
					seed, op, s.used, len(s.resident), ref.used, len(ref.resident))
			}
			for reg, b := range ref.resident {
				if s.resident[reg] != b {
					t.Fatalf("seed %d op %d: region %d holds %d bytes, legacy %d", seed, op, reg, s.resident[reg], b)
				}
			}
			if len(s.order) != len(s.resident)+s.nstale || s.nstale > len(s.resident)/2+5 {
				t.Fatalf("seed %d op %d: order log %d entries (%d stale) for %d resident regions",
					seed, op, len(s.order), s.nstale, len(s.resident))
			}
		}
	}
}
