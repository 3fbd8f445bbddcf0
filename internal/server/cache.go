package server

import (
	"crypto/sha256"
	"strconv"
	"sync/atomic"

	swapp "repro"
)

// cacheKey is the content address of one evaluation result: a raw sha256.
// Using the array itself as the map key (instead of a hex string) keeps
// key derivation allocation-free on the serving hot path.
type cacheKey [sha256.Size]byte

// digest returns the content-addressed cache key for one evaluation: a
// sha256 over the operation and every request field that influences the
// numbers. Workers and Obs are excluded (the projection is byte-identical
// across them, by the engine's determinism contract), as is the caller's
// deadline — a request that times out for one client must still be
// serveable from cache for the next. warm IS included: a warm-started
// search explores from a different generation 0 and may produce different
// bytes, so warm and cold results never share an entry. Requests must be
// normalised first so that a defaulted and an explicit base share an
// entry.
func digest(op string, req swapp.Request, warm bool) cacheKey {
	var buf [96]byte
	b := buf[:0]
	b = append(b, op...)
	b = append(b, '|')
	b = append(b, req.Base...)
	b = append(b, '|')
	b = append(b, req.Target...)
	b = append(b, '|')
	b = append(b, string(req.Bench)...)
	b = append(b, '|')
	b = append(b, byte(req.Class))
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(req.Ranks), 10)
	if warm {
		b = append(b, "|warm"...)
	}
	return sha256.Sum256(b)
}

// Endpoint indices for the per-endpoint rendered-bytes slots. /v1/project
// and /v1/surrogate share one result entry (same op) but render it
// differently, so each endpoint owns a slot.
const (
	epProject = iota
	epValidate
	epSurrogate
	numEndpoints
)

// entry is one finished evaluation: its *swapp.Result, immutable once
// published, plus the rendered wire bytes per endpoint — rendered at most
// once per (entry, endpoint) and served as-is on every later hit, so the
// hot path never re-marshals a projection.
type entry struct {
	res      *swapp.Result
	rendered [numEndpoints]atomic.Pointer[[]byte]
}

// bytes returns the entry's wire bytes for endpoint ep, rendering via
// render on the slot's first use. Rendering is a pure function of the
// immutable result, so concurrent first renders produce identical bytes
// and last-write-wins is benign.
func (e *entry) bytes(ep int, render func(*swapp.Result) ([]byte, error)) ([]byte, error) {
	if b := e.rendered[ep].Load(); b != nil {
		return *b, nil
	}
	b, err := render(e.res)
	if err != nil {
		return nil, err
	}
	e.rendered[ep].Store(&b)
	return b, nil
}
