// Package fullsys implements the coarse-grain full-system simulator
// that the paper couples to the detailed NoC: in-order cores with
// store buffers, private L1 caches, a distributed shared L2 with a
// blocking full-map MESI directory, memory controllers, and a
// message-based barrier — everything needed to generate realistic,
// closed-loop coherence traffic whose timing depends on the network
// and vice versa.
//
// The simulator is network-agnostic: it emits Msg values through a
// send callback and receives them via Deliver, so the co-simulation
// layer can back it with the cycle-level NoC, an abstract analytical
// model, or any mixture.
package fullsys

import (
	"fmt"

	"repro/internal/stats"
)

// MsgType enumerates the coherence, memory, and synchronization
// messages exchanged between tiles.
type MsgType uint8

// Protocol message types. Requests and writebacks travel on virtual
// network 0, responses on virtual network 1, and forwarded requests /
// invalidations on virtual network 2 — the standard three-network
// split that keeps the MESI protocol deadlock-free.
const (
	// Requests (core -> home directory).
	GetS MsgType = iota // read request
	GetM                // write/ownership request
	PutM                // dirty writeback (carries data)
	PutE                // clean-exclusive writeback notice

	// Forwarded requests and invalidations (home -> owner/sharers).
	FwdGetS // downgrade owner to S, send data home
	FwdGetM // transfer ownership to requester
	Inv     // invalidate shared copy

	// Responses.
	DataS  // data, shared grant (carries data)
	DataE  // data, exclusive grant (carries data)
	DataM  // data, modified grant (carries data)
	GrantM // ownership grant without data (upgrade)
	DataWB // owner's data back to home (carries data)
	InvAck // invalidation acknowledgment
	FwdAck // ownership-transfer acknowledgment to home
	WBAck  // writeback acknowledgment

	// Memory controller traffic.
	MemRead  // home -> MC line fetch
	MemWrite // home -> MC dirty eviction (carries data)
	MemData  // MC -> home line fill (carries data)
	MemWAck  // MC -> home write acknowledgment

	// Barrier synchronization.
	BarArrive  // core -> coordinator
	BarRelease // coordinator -> core

	numMsgTypes
)

var msgNames = [numMsgTypes]string{
	"GetS", "GetM", "PutM", "PutE",
	"FwdGetS", "FwdGetM", "Inv",
	"DataS", "DataE", "DataM", "GrantM", "DataWB", "InvAck", "FwdAck", "WBAck",
	"MemRead", "MemWrite", "MemData", "MemWAck",
	"BarArrive", "BarRelease",
}

func (t MsgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Valid reports whether t is a message type.
func (t MsgType) Valid() bool { return t < numMsgTypes }

// VNet reports the virtual network the message class travels on.
func (t MsgType) VNet() int {
	switch t {
	case GetS, GetM, PutM, PutE, MemRead, MemWrite, BarArrive:
		return 0
	case FwdGetS, FwdGetM, Inv, BarRelease:
		return 2
	default:
		return 1
	}
}

// CarriesData reports whether the message includes a full cache line.
func (t MsgType) CarriesData() bool {
	switch t {
	case PutM, DataS, DataE, DataM, DataWB, MemData, MemWrite:
		return true
	default:
		return false
	}
}

// Class maps the message onto a latency-statistics class.
func (t MsgType) Class() stats.LatencyClass {
	switch t.VNet() {
	case 0:
		return stats.ClassRequest
	case 1:
		return stats.ClassResponse
	default:
		return stats.ClassControl
	}
}

// Msg is one protocol message. Line values are modelled as a single
// 64-bit token per 64-byte line, which lets tests verify end-to-end
// data correctness (stores must be visible to subsequent loads exactly
// per MESI semantics).
type Msg struct {
	Type MsgType
	// Line is the cache-line address (byte address >> 6).
	Line uint64
	// Src and Dst are tile ids.
	Src, Dst int
	// Value is the line's data token for data-carrying messages, the
	// barrier id for barrier messages.
	Value uint64
}

func (m Msg) String() string {
	return fmt.Sprintf("%s line=%#x %d->%d v=%d", m.Type, m.Line, m.Src, m.Dst, m.Value)
}

// Flits reports the packet size for this message: one control flit,
// plus four payload flits for a 64-byte line over 16-byte links.
func (m Msg) Flits() int {
	if m.Type.CarriesData() {
		return 5
	}
	return 1
}
