package obs

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestProgressPublishSnapshot(t *testing.T) {
	rt := NewReqTrace("live", 1, 0)
	rt.BeginRun("database PC", 500000)
	var last Counters
	rt.Publish(Counters{100000, 0, 1000, 2000, 500}, &last)
	rt.Publish(Counters{250000, 150000, 3000, 6000, 1500}, &last)
	if last != (Counters{250000, 150000, 3000, 6000, 1500}) {
		t.Errorf("Publish left last = %+v, want the published counters", last)
	}
	s := rt.Live()
	if s.Label != "database PC" || s.Total != 500000 {
		t.Errorf("identity fields = %+v", s)
	}
	if s.Insts != 250000 || s.Measured != 150000 || s.Epochs != 3000 {
		t.Errorf("counters = %+v, want the latest cumulative values", s)
	}
	if want := float64(6000+1500) / 3000; s.MLP != want {
		t.Errorf("MLP = %v, want %v", s.MLP, want)
	}
	if s.Done {
		t.Error("not finished yet")
	}
	rt.EndRun()
	if !rt.Live().Done {
		t.Error("EndRun did not mark the trace done")
	}
	if active, finished := rt.live.active(), rt.live.finished.Load(); active != 0 || finished != 1 {
		t.Errorf("runs = %d active, %d finished, want 0, 1", active, finished)
	}
}

// TestTraceSumsConcurrentRuns: runs sharing one trace add deltas, so
// the trace's counters are the exact sums however the runs interleave.
func TestTraceSumsConcurrentRuns(t *testing.T) {
	const runs, batches = 8, 100
	b := NewBoard()
	rt := b.NewReqTrace("sweep", 1, 0)
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.BeginRun("point", 1000)
			var last Counters
			for i := int64(1); i <= batches; i++ {
				rt.Publish(Counters{10 * i, 5 * i, i, 2 * i, i}, &last)
			}
			rt.EndRun()
		}()
	}
	wg.Wait()
	s := rt.Live()
	if s.Total != runs*1000 || s.Insts != runs*10*batches || s.Measured != runs*5*batches ||
		s.Epochs != runs*batches || s.LoadInstMisses != runs*2*batches || s.StoreMisses != runs*batches {
		t.Errorf("summed counters = %+v", s)
	}
	doc := b.Runs()
	if doc.Totals != (Totals{FinishedRuns: runs, Insts: runs * 10 * batches, Epochs: runs * batches}) {
		t.Errorf("board totals = %+v", doc.Totals)
	}
	if len(doc.Active) != 0 {
		t.Errorf("finished trace still active: %+v", doc.Active)
	}
}

func TestBoardActiveAndTotals(t *testing.T) {
	b := NewBoard()
	idle := b.NewReqTrace("cache hit", 1, 0) // never runs: never on the board
	one := b.NewReqTrace("one", 1, 0)
	one.BeginRun("one", 100)
	var l1 Counters
	one.Publish(Counters{Insts: 50, Epochs: 10}, &l1)
	two := b.NewReqTrace("two", 1, 0)
	two.BeginRun("two", 200)
	var l2 Counters
	two.Publish(Counters{Insts: 80, Epochs: 4}, &l2)

	doc := b.Runs()
	if len(doc.Active) != 2 || doc.Active[0].Label != "one" || doc.Active[1].Label != "two" {
		t.Fatalf("active = %+v, want one then two", doc.Active)
	}
	if doc.Totals != (Totals{ActiveRuns: 2, Insts: 130, Epochs: 14}) {
		t.Errorf("totals = %+v", doc.Totals)
	}

	one.EndRun()
	if tot := b.Runs().Totals; tot != (Totals{ActiveRuns: 1, FinishedRuns: 1, Insts: 130, Epochs: 14}) {
		t.Errorf("after finish: %+v", tot)
	}
	// A second run on a trace that left the board re-enters it and
	// adds to the same entry.
	one.BeginRun("one again", 100)
	if act := b.Runs().Active; len(act) != 2 || act[0].Label != "one again" || act[0].Total != 200 {
		t.Errorf("re-entered active = %+v", act)
	}
	one.EndRun()
	two.EndRun()
	doc = b.Runs()
	if len(doc.Active) != 0 {
		t.Errorf("active after every run ended = %+v", doc.Active)
	}
	if doc.Totals.FinishedRuns != 3 {
		t.Errorf("finished runs = %d, want 3", doc.Totals.FinishedRuns)
	}
	if s := idle.Live(); !s.Done || s.Insts != 0 {
		t.Errorf("idle trace = %+v, want no runs and no counters", s)
	}
}

func TestBoardNilSafe(t *testing.T) {
	var b *Board
	rt := b.NewReqTrace("x", 1, 0)
	rt.BeginRun("x", 1)
	var last Counters
	rt.Publish(Counters{Insts: 5}, &last)
	rt.EndRun()
	if rt.Live().Insts != 5 {
		t.Error("a trace without a board should still count")
	}
	if doc := b.Runs(); doc.Active == nil || len(doc.Active) != 0 || doc.Totals != (Totals{}) {
		t.Errorf("nil board reported %+v, want an empty document", doc)
	}
	var nt *ReqTrace
	nt.BeginRun("x", 1)
	nt.Publish(Counters{Insts: 1}, &last)
	nt.EndRun()
	if s := nt.Live(); s != (Snapshot{}) {
		t.Errorf("nil trace snapshot = %+v", s)
	}
}

func TestBoardHandler(t *testing.T) {
	b := NewBoard()
	rt := b.NewReqTrace("req", 1, 0)
	rt.BeginRun("handler run", 1000)
	var last Counters
	rt.Publish(Counters{500, 100, 2, 4, 1}, &last)
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc Runs
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Active) != 1 || doc.Active[0].Label != "handler run" || doc.Active[0].Insts != 500 {
		t.Errorf("runs doc = %+v", doc)
	}
	if doc.Totals.ActiveRuns != 1 {
		t.Errorf("totals = %+v", doc.Totals)
	}
}
