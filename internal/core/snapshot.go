package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/imb"
	"repro/internal/persist"
	"repro/internal/spec"
)

// StoreSnapshot is the on-disk spill of the store's transferable layers:
// the replication vault (rendered result bytes) and the characterisation
// layer (SPEC result sets and IMB tables in their persist wire form).
// Profiles and surrogates are deliberately absent — they are cheap to
// recompute relative to characterisation, and their in-memory values
// carry live pointers that have no stable wire form.
//
// Every entry carries its own sha256, verified on import exactly like
// /v1/replicate verifies pushed artifacts: a corrupt or tampered entry
// is rejected and counted, never loaded.
type StoreSnapshot struct {
	Version   int            `json:"version"`
	Artifacts []Artifact     `json:"artifacts"`
	Chars     []CharArtifact `json:"chars"`
}

// SnapshotVersion is the current StoreSnapshot schema version. Imports
// of other versions are rejected whole (a snapshot is a cache spill, not
// a migration source).
const SnapshotVersion = 1

// CharArtifact is one characterisation-layer entry in transferable form:
// the layer key, the hex sha256 of Body, and the persist-marshalled
// payload (MarshalSpec for spec| keys, MarshalIMB for imb| keys).
type CharArtifact struct {
	Key  string `json:"key"`
	Sum  string `json:"sum"`
	Body []byte `json:"body"`
}

// ExportSnapshot captures the vault and the characterisation layer.
// External ("ext|") characterisation entries are skipped: their values
// are opaque to the store and have no wire form. Entries that fail to
// marshal are skipped rather than failing the whole export — a spill is
// best-effort by design.
func (s *Store) ExportSnapshot() *StoreSnapshot {
	if s == nil {
		return &StoreSnapshot{Version: SnapshotVersion}
	}
	snap := &StoreSnapshot{Version: SnapshotVersion, Artifacts: s.ExportArtifacts()}
	type entry struct {
		key string
		val any
	}
	var entries []entry
	s.chars.c.Range(func(key string, val any) { entries = append(entries, entry{key, val}) })
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	for _, e := range entries {
		var body []byte
		var err error
		switch v := e.val.(type) {
		case map[string]spec.Result:
			body, err = persist.MarshalSpec(machineOfSpecKey(e.key), v)
		case *imb.Table:
			body, err = persist.MarshalIMB(v)
		default:
			continue // ext| entries: opaque, not spillable
		}
		if err != nil {
			continue
		}
		sum := sha256.Sum256(body)
		snap.Chars = append(snap.Chars, CharArtifact{Key: e.key, Sum: hex.EncodeToString(sum[:]), Body: body})
	}
	return snap
}

// machineOfSpecKey recovers the machine name from a spec| layer key.
func machineOfSpecKey(key string) string {
	var m string
	if _, err := fmt.Sscanf(key, "spec|%q", &m); err == nil {
		return m
	}
	return ""
}

// ImportSnapshot loads a snapshot into the store. Every entry is
// verified — checksum first, then the payload is parsed by the persist
// validators and its content-derived key must equal the recorded key, so
// a snapshot can never publish data under a key it doesn't match.
// Returns how many entries were stored and how many rejected; rejections
// are counted on the vault's _rejects or _conflicts counter (artifacts) or
// the characterisation layer's <prefix>.characterisation_rejects.
func (s *Store) ImportSnapshot(snap *StoreSnapshot) (stored, rejected int) {
	if s == nil || snap == nil {
		return 0, 0
	}
	if snap.Version != SnapshotVersion {
		return 0, 0
	}
	for _, a := range snap.Artifacts {
		if _, err := s.ImportArtifact(a); err != nil {
			rejected++
			continue
		}
		stored++
	}
	for _, c := range snap.Chars {
		if s.importChar(c) {
			stored++
		} else {
			rejected++
			s.chars.obs.Count(s.chars.name+"_rejects", 1)
		}
	}
	return stored, rejected
}

// importChar verifies and loads one characterisation entry.
func (s *Store) importChar(c CharArtifact) bool {
	sum := sha256.Sum256(c.Body)
	if c.Sum != hex.EncodeToString(sum[:]) {
		return false
	}
	var val any
	var wantKey string
	switch {
	case strings.HasPrefix(c.Key, "spec|"):
		machine, results, err := persist.UnmarshalSpec(c.Body)
		if err != nil {
			return false
		}
		val, wantKey = results, fmt.Sprintf("spec|%q", machine)
	case strings.HasPrefix(c.Key, "imb|"):
		t, err := persist.UnmarshalIMB(c.Body)
		if err != nil {
			return false
		}
		val, wantKey = t, fmt.Sprintf("imb|%q|%d", t.Machine, t.Ranks)
	default:
		return false
	}
	if c.Key != wantKey {
		return false
	}
	// Live data is never overwritten by a spill: a resident entry wins.
	if _, added := s.chars.c.Add(c.Key, val); added {
		s.chars.obs.Gauge(s.chars.size, float64(s.chars.c.Len()))
	}
	return true
}
