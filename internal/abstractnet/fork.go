package abstractnet

import (
	"fmt"

	"repro/internal/noc"
)

// In-memory forking (second tier of the state capture contract; see
// DESIGN.md "Two-tier state capture").

// modelForker is implemented by every analytical model in this
// package. Like modelStater it is kept out of the Model interface so
// external Model implementations keep compiling; Network.Fork fails
// loudly when handed a model it cannot clone.
type modelForker interface {
	ForkModel() Model
	RestoreForkModel(f Model)
}

// ForkModel returns the model itself: the zero-load model is
// stateless over its construction inputs, so sharing it is safe.
func (f *Fixed) ForkModel() Model { return f }

// RestoreForkModel is a no-op: there is no mutable state.
func (f *Fixed) RestoreForkModel(Model) {}

// ForkModel returns an independent copy of the windowed link-load
// state, sharing the immutable path topology and params.
func (c *Contention) ForkModel() Model {
	return &Contention{
		topo:  c.topo,
		p:     c.p,
		acc:   append([]float64(nil), c.acc...),
		util:  append([]float64(nil), c.util...),
		start: c.start,
	}
}

// RestoreForkModel copies f's link-load state into c in place.
func (c *Contention) RestoreForkModel(f Model) {
	src := f.(*Contention)
	c.acc = append(c.acc[:0], src.acc...)
	c.util = append(c.util[:0], src.util...)
	c.start = src.start
}

// ForkModel forks the base model and the affine correction. The
// forked fit is a fresh object: a calibration pairing forked
// alongside must re-alias it through ForkWith, preserving the
// fit-sharing topology of the parent.
func (t *Tuned) ForkModel() Model {
	base, ok := t.Base.(modelForker)
	if !ok {
		panic(fmt.Sprintf("abstractnet: base model %s does not support forking", t.Base.Name()))
	}
	return &Tuned{Base: base.ForkModel(), fit: t.fit.Fork()}
}

// RestoreForkModel copies f's fit and base-model state into t in
// place, keeping t's own fit object so sharers stay wired to it.
func (t *Tuned) RestoreForkModel(f Model) {
	src := f.(*Tuned)
	t.fit.RestoreFork(src.fit)
	base, ok := t.Base.(modelForker)
	if !ok {
		panic(fmt.Sprintf("abstractnet: base model %s does not support forking", t.Base.Name()))
	}
	base.RestoreForkModel(src.Base)
}

// Fork returns an independent deep clone of the abstract backend,
// including a forked model. remap threads packet clones across the
// owning backend (the hybrid coordinator keys predictions by packet
// pointer, so shared identity must survive the fork).
func (n *Network) Fork(remap noc.PacketRemap) *Network {
	mf, ok := n.model.(modelForker)
	if !ok {
		panic(fmt.Sprintf("abstractnet: model %s does not support forking", n.model.Name()))
	}
	f := NewNetwork(mf.ForkModel())
	f.copyStateFrom(n, remap)
	return f
}

// RestoreFork copies f's state into n in place, including the model
// (restored into n's own model object, so fit sharers stay valid).
// f is left intact for repeated restores.
func (n *Network) RestoreFork(f *Network, remap noc.PacketRemap) {
	mf, ok := n.model.(modelForker)
	if !ok {
		panic(fmt.Sprintf("abstractnet: model %s does not support forking", n.model.Name()))
	}
	mf.RestoreForkModel(f.model)
	n.copyStateFrom(f, remap)
}

func (n *Network) copyStateFrom(src *Network, remap noc.PacketRemap) {
	n.cycle = src.cycle
	n.injected = src.injected
	n.delivered = src.delivered
	n.nextID = src.nextID
	n.tracker.RestoreFork(src.tracker)
	n.pending.ForkFrom(&src.pending)
	n.pending.Map(remap.Clone)
	n.srcFree = append(n.srcFree[:0], src.srcFree...)
	n.drainBuf = n.drainBuf[:0]
	n.pool = noc.PacketPool{}
}
