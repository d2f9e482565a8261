package obs

import (
	"bytes"
	"testing"
)

func TestRegistryVisit(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(7)
	r.Gauge("a.gauge").Set(2.5)
	r.Histogram("c.hist", 1, 8).Observe(3)

	var names []string
	byName := map[string]MetricView{}
	r.Visit(func(v MetricView) {
		names = append(names, v.Name)
		byName[v.Name] = v
	})
	if len(names) != 3 || names[0] != "a.gauge" || names[1] != "b.count" || names[2] != "c.hist" {
		t.Fatalf("visit order %v, want sorted", names)
	}
	if v := byName["b.count"]; v.Kind != KindCounter || v.Value != 7 {
		t.Fatalf("counter view %+v", v)
	}
	if v := byName["a.gauge"]; v.Kind != KindGauge || v.Value != 2.5 {
		t.Fatalf("gauge view %+v", v)
	}
	if v := byName["c.hist"]; v.Kind != KindHistogram || v.Hist == nil || v.Hist.Count() != 1 {
		t.Fatalf("histogram view %+v", v)
	}

	var nilr *Registry
	nilr.Visit(func(MetricView) { t.Fatal("nil registry visited") })
}

// TestSubscription: a subscriber sees only the record kinds it asked
// for, in emission order; the trace buffers the same records with or
// without it; and the trace's capacity bound never drops a record on
// a subscriber's behalf.
func TestSubscription(t *testing.T) {
	feed := []Record{
		{Kind: SpanRecord, Track: "net", Name: "advance", Start: 0, End: 10},
		{Kind: SampleRecord, Name: "net.inflight", Start: 10, Value: 3},
		{Kind: RetuneRecord, Track: "net", Name: "retune", Start: 10, End: 10},
		{Kind: QuantumRecord, Start: 0, End: 10},
	}
	for i := 0; i < 10; i++ {
		feed = append(feed, Record{Kind: SpanRecord, Track: "mem", Name: "advance", Start: 10, End: 20})
	}
	run := func(subscribe bool) (*Observer, []Record) {
		o := New(Options{Trace: true})
		o.trace.cap = 4
		var got []Record
		if subscribe {
			o.Subscribe(SpanRecord|RetuneRecord, func(r Record) { got = append(got, r) })
		}
		for _, r := range feed {
			if o.Wants(r.Kind) {
				o.Emit(r)
			}
		}
		return o, got
	}

	plain, _ := run(false)
	o, got := run(true)
	if len(got) != 12 || got[0] != feed[0] || got[1] != feed[2] || got[11] != feed[13] {
		t.Fatalf("subscriber saw %d records %+v", len(got), got)
	}
	if o.Wants(QuantumRecord) {
		t.Error("nobody subscribed to quanta, yet the observer wants them")
	}
	if o.Trace().Len() != 4 || o.Trace().dropped != 9 {
		t.Errorf("trace kept %d and dropped %d, want 4 and 9", o.Trace().Len(), o.Trace().dropped)
	}
	var a, b bytes.Buffer
	if err := plain.WriteTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("a subscriber changed the trace:\n%s\nwant\n%s", b.Bytes(), a.Bytes())
	}

	var off *Observer
	if off.Wants(SpanRecord | RetuneRecord | SampleRecord | QuantumRecord) {
		t.Error("a nil observer wants records")
	}
}
