package main

import (
	"math"
	"slices"
)

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of samples,
// which it sorts in place, and the number of samples strictly above
// the chosen rank. ok is false when samples is empty.
func percentile(samples []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, 0, false
	}
	slices.Sort(samples)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	rank = min(max(rank, 1), n)
	return samples[rank-1], n - rank, true
}

// median is percentile(samples, 0.5) without the count.
func median(samples []float64) float64 {
	v, _, _ := percentile(samples, 0.5)
	return v
}

// minTail is the number of samples a reported percentile must have
// beyond it: a tail figure resting on fewer is an anecdote.
const minTail = 10

// tailPercentile is the p-quantile when at least minTail samples lie
// beyond it; otherwise ok is false and the caller reports a lower one.
func tailPercentile(samples []float64, p float64) (v float64, beyond int, ok bool) {
	v, beyond, ok = percentile(samples, p)
	return v, beyond, ok && beyond >= minTail
}

// outcome tallies operations attempted and failed. An operation fails
// when the daemon refuses or sheds it, when the transport fails, or —
// for ingest — when a flushed key is absent from the verification
// pass.
type outcome struct {
	Attempted int64
	Failed    int64
}

func (o *outcome) add(ok bool) {
	o.Attempted++
	if !ok {
		o.Failed++
	}
}

// lostKeys charges keys that were flushed but never arrived.
func (o *outcome) lostKeys(flushed, lost int64) {
	o.Attempted += flushed
	o.Failed += lost
}

// failFrac is Failed ÷ Attempted (0 when nothing was attempted).
func (o outcome) failFrac() float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.Failed) / float64(o.Attempted)
}

// budget is the layer decomposition of one request's median time: what
// the client saw, and the parts measured in isolation on the same
// bytes. Residual is what the parts do not explain.
type budget struct {
	CallNs       float64 // client.call_ns
	EncodeReqNs  float64 // wire.encode_req_ns
	EchoRTTNs    float64 // kernel.echo_rtt_ns
	FrameNs      float64 // server.frame_ns
	DecodeRespNs float64 // wire.decode_resp_ns
}

// residual is CallNs minus the sum of the measured parts, and that
// remainder as a share of CallNs. A negative residual means the parts,
// measured in isolation, cost more than the whole did under load.
func (b budget) residual() (ns, frac float64) {
	ns = b.CallNs - (b.EncodeReqNs + b.EchoRTTNs + b.FrameNs + b.DecodeRespNs)
	if b.CallNs == 0 {
		return ns, 0
	}
	return ns, ns / b.CallNs
}
