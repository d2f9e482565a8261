package obsplane

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// PromWriter emits the Prometheus text exposition format (version
// 0.0.4) with nothing beyond the stdlib: `# HELP`/`# TYPE` headers and
// `name{label="value"} 1.5` samples. Errors are sticky — callers write
// the whole page and check Err once.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err reports the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Header emits the `# HELP` and `# TYPE` lines for a metric family.
// typ is one of "counter", "gauge", "histogram".
func (p *PromWriter) Header(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n",
		name, escapeHelp(help), name, typ)
}

// Labels is an ordered label set; ordered so exposition (and tests)
// are deterministic without sorting at write time.
type Labels [][2]string

// L is shorthand for a single-pair label set.
func L(k, v string) Labels { return Labels{{k, v}} }

func (l Labels) String() string {
	if len(l) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range l {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Sample emits one sample line. Emit the family Header first.
func (p *PromWriter) Sample(name string, labels Labels, v float64) {
	p.printf("%s%s %s\n", name, labels.String(), formatFloat(v))
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// wallBuckets is the fixed WallHist shape: upper bounds in seconds
// from 1 µs, ×4 per bucket (1 µs … ~16.8 s), then +Inf. Thirteen
// finite buckets span every phase cost the server sees — sub-ms parks
// through multi-second drains — at a resolution good enough to tell
// tiers apart.
const wallBuckets = 13

func wallBound(i int) float64 {
	b := 1e-6
	for ; i > 0; i-- {
		b *= 4
	}
	return b
}

// WallHist is a concurrency-safe fixed-bucket wall-time histogram
// shaped for Prometheus histogram exposition (cumulative buckets,
// `_sum` in seconds, `_count`). Observing is O(1) and allocation-free.
type WallHist struct {
	mu     sync.Mutex
	counts [wallBuckets]uint64
	count  uint64
	sumNs  int64
}

// Observe records one wall-time cost.
func (h *WallHist) Observe(d time.Duration) {
	if h == nil {
		return
	}
	sec := d.Seconds()
	h.mu.Lock()
	for i := 0; i < wallBuckets; i++ {
		if sec <= wallBound(i) {
			h.counts[i]++
			break
		}
	}
	h.count++
	h.sumNs += d.Nanoseconds()
	h.mu.Unlock()
}

// Count reports how many observations the histogram holds.
func (h *WallHist) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// WriteProm emits the histogram's `_bucket`/`_sum`/`_count` sample
// lines under the given family name with the given extra labels (the
// family Header is the caller's, emitted once per family). Bucket
// counts are cumulative, per the exposition format.
func (h *WallHist) WriteProm(p *PromWriter, name string, labels Labels) {
	var counts [wallBuckets]uint64
	var count uint64
	var sumNs int64
	if h != nil {
		h.mu.Lock()
		counts, count, sumNs = h.counts, h.count, h.sumNs
		h.mu.Unlock()
	}
	cum := uint64(0)
	for i := 0; i < wallBuckets; i++ {
		cum += counts[i]
		le := append(append(Labels{}, labels...),
			[2]string{"le", formatFloat(wallBound(i))})
		p.Sample(name+"_bucket", le, float64(cum))
	}
	inf := append(append(Labels{}, labels...), [2]string{"le", "+Inf"})
	p.Sample(name+"_bucket", inf, float64(count))
	p.Sample(name+"_sum", labels, float64(sumNs)/1e9)
	p.Sample(name+"_count", labels, float64(count))
}

// SortedKeys returns a map's keys sorted — a small helper for callers
// emitting deterministic exposition from map-backed state.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
