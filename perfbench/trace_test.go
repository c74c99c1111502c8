package main

import "testing"

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},  // 0: root
		{start: 10, end: 40, parent: 0},   // 1
		{start: 30, end: 60, parent: 0},   // 2: overlaps 1
		{start: 15, end: 20, parent: 1},   // 3: grandchild, covered by 1 already
		{start: 90, end: 120, parent: 0},  // 4: sticks out of the root
		{start: 70, end: 70, parent: 0},   // 5: empty
		{start: 200, end: 250, parent: 0}, // 6: outside the root entirely
		{start: 300, end: 310, parent: -1},
	}
	// The root's children cover [10,60] and [90,100]: 60 of 100.
	want := []int64{40, 25, 30, 5, 30, 0, 50, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSelfTimeChildOrderDoesNotMatter(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},
		{start: 50, end: 80, parent: 0},
		{start: 0, end: 55, parent: 0},
		{start: 20, end: 30, parent: 0},
	}
	if got := selfTimes(spans)[0]; got != 20 {
		t.Fatalf("root self %d, want 20", got)
	}
}

func TestTracerNestsAndNilRecordsNothing(t *testing.T) {
	var none *tracer
	none.end(none.begin(spanRound, 0)) // must not panic

	l := newTraceLog()
	trs := l.tracers(2)
	r := trs[1].begin(spanRound, 7)
	w := trs[1].begin(spanWait, 7)
	trs[1].end(w)
	trs[1].end(r)
	l.collect(trs)
	if len(l.kept) != 2 || l.kept[1].parent != 0 || l.kept[0].rank != 1 || l.kept[1].op != 7 {
		t.Fatalf("kept spans %+v", l.kept)
	}
	if l.byName[spanRound].n != 1 || l.byName[spanWait].n != 1 {
		t.Fatalf("totals %+v", l.byName)
	}
	if st := l.byName[spanRound]; st.self > st.dur || st.dur < l.byName[spanWait].dur {
		t.Fatalf("round %+v wait %+v", st, l.byName[spanWait])
	}
}
