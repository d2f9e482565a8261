package noc

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/noc/topology"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

var updatePins = flag.Bool("update-pipeline-pins", false,
	"rewrite testdata/pipeline-pins.txt from the current code")

const pipelinePinsFile = "testdata/pipeline-pins.txt"

// pinCycles are the mid-run cycles at which a pipeline shape's
// Energy() and BufferedFlits() are pinned; the checkpoint is taken at
// the second. The load keeps flits on links at each of them.
var pinCycles = [3]sim.Cycle{61, 97, 142}

// pipelineShapes lists every (RouterStages, LinkLatency, CreditLatency)
// shape the pins cover, each on a 4x4 mesh and a 5x3 torus.
func pipelineShapes() []string {
	var names []string
	for _, topo := range []string{"mesh4x4", "torus5x3"} {
		for s := 1; s <= 3; s++ {
			for l := 1; l <= 3; l++ {
				for c := 1; c <= 2; c++ {
					names = append(names, fmt.Sprintf("%s/S%d/L%d/C%d", topo, s, l, c))
				}
			}
		}
	}
	return names
}

// pipelineNet builds the network a shape name describes.
func pipelineNet(t *testing.T, shape string, workers int) *Network {
	t.Helper()
	var topo, rest string
	var s, l, c int
	topo, rest, _ = strings.Cut(shape, "/")
	if _, err := fmt.Sscanf(rest, "S%d/L%d/C%d", &s, &l, &c); err != nil {
		t.Fatalf("shape %q: %v", shape, err)
	}
	cfg := DefaultConfig()
	cfg.RouterStages, cfg.LinkLatency, cfg.CreditLatency = s, l, c
	if topo == "mesh4x4" {
		m := topology.NewMesh(4, 4, 1)
		return mustNet(t, cfg, m, topology.NewXY(m), WithWorkers(workers))
	}
	tor := topology.NewTorus(5, 3, 1)
	return mustNet(t, cfg, tor, topology.NewTorusDOR(tor), WithWorkers(workers))
}

// flitsOnLinks counts the flits written into link rings and not yet
// taken out of them.
func flitsOnLinks(n *Network) int {
	k := 0
	for i := range n.linkFlits {
		if n.linkFlits[i].ref != 0 {
			k++
		}
	}
	return k
}

// pipelineRun drives a shape under a fixed load for 200 cycles and
// drains it, and returns its pin line: a digest of every delivered
// packet's (ID, CreatedAt, InjectedAt, DeliveredAt, Hops), Energy()
// and BufferedFlits() at each pin cycle, and the SHA-256 of a mid-run
// checkpoint. With resume set, the run continues from its checkpoint
// restored into a fresh network of the same shape and worker count.
func pipelineRun(t *testing.T, shape string, workers int, resume bool) string {
	t.Helper()
	n := pipelineNet(t, shape, workers)
	terms := n.Topology().NumTerminals()
	rng := sim.NewRNG(5, 23)
	h := sha256.New()
	delivered := 0
	drain := func() {
		for _, p := range n.Drain() {
			var rec [40]byte
			binary.LittleEndian.PutUint64(rec[0:], p.ID)
			binary.LittleEndian.PutUint64(rec[8:], uint64(p.CreatedAt))
			binary.LittleEndian.PutUint64(rec[16:], uint64(p.InjectedAt))
			binary.LittleEndian.PutUint64(rec[24:], uint64(p.DeliveredAt))
			binary.LittleEndian.PutUint64(rec[32:], uint64(p.Hops))
			h.Write(rec[:])
			delivered++
		}
	}
	var mid strings.Builder
	for cyc := sim.Cycle(0); cyc < 200; cyc++ {
		for k, pc := range pinCycles {
			if cyc != pc {
				continue
			}
			if flitsOnLinks(n) == 0 {
				t.Fatalf("%s: no flit on a link at pin cycle %d", shape, cyc)
			}
			e := n.Energy(DefaultEnergy())
			fmt.Fprintf(&mid, " @%d=w%d/r%d/x%d/a%d/l%d/%.2fpJ/buf%d", cyc,
				e.BufWrites, e.BufReads, e.XbarFlits, e.Arbs, e.LinkFlits, e.TotalPJ(), n.BufferedFlits())
			if k != 1 {
				continue
			}
			blob := encodeNet(n)
			fmt.Fprintf(&mid, " ckpt=%x", sha256.Sum256(blob))
			if resume {
				r := pipelineNet(t, shape, workers)
				if err := snapshot.Open(blob, 1, walkNet(r)); err != nil {
					t.Fatalf("%s: restore at cycle %d: %v", shape, cyc, err)
				}
				n = r
			}
		}
		for s := 0; s < terms; s++ {
			if !rng.Bernoulli(0.12) {
				continue
			}
			d := rng.Intn(terms - 1)
			if d >= s {
				d++
			}
			size := 1
			if rng.Bernoulli(0.5) {
				size = 4
			}
			n.Inject(&Packet{Src: s, Dst: d, VNet: rng.Intn(3), Size: size}, cyc)
		}
		n.Step()
		drain()
	}
	for i := 0; i < 5000 && !n.Quiescent(); i++ {
		n.Step()
		drain()
	}
	if !n.Quiescent() || uint64(delivered) != n.Injected() {
		t.Fatalf("%s: %d of %d packets delivered", shape, delivered, n.Injected())
	}
	return fmt.Sprintf("%s pkts=%d/%x%s", shape, delivered, h.Sum(nil)[:12], mid.String())
}

// TestShardedPipelinePins pins every non-default pipeline shape — router
// stages, link and credit latency — on a mesh and a torus: what it
// delivers, its energy counters and buffered flits while flits are on
// links, and its mid-run checkpoint bytes. Each shape runs on one shard
// and on three, the three-shard run continuing from its own checkpoint
// restored into a fresh network; both must give the committed line.
// `make race-shard` runs it under the race detector.
func TestShardedPipelinePins(t *testing.T) {
	var got []string
	for _, shape := range pipelineShapes() {
		one := pipelineRun(t, shape, 1, false)
		if three := pipelineRun(t, shape, 3, true); three != one {
			t.Errorf("three shards with a resume differ from one shard:\n 1: %s\n 3: %s", one, three)
		}
		got = append(got, one)
	}
	if *updatePins {
		if err := os.WriteFile(pipelinePinsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(pipelinePinsFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-pipeline-pins)", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, the shapes give %d", pipelinePinsFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("pin moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
