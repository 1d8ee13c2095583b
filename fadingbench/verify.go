package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"

	rayleigh "repro"
	"repro/internal/service"
)

// verify checks every captured frame against the in-process reference
// (service.NewStreamFromSpec): a binary frame's digest against the digest of
// service.FrameEncoder's bytes for the same block, an NDJSON line value by
// value against the reference envelopes. Repeats of a block were compared
// with its first copy during capture, failing their request on a mismatch.
// It returns the number of first copies that failed. The clients must have
// stopped.
func verify(cp *capture, specs map[int]*service.SessionSpec, format string) (int, error) {
	keys := make([]frameKey, 0, len(cp.digests))
	for k := range cp.digests {
		keys = append(keys, k)
	}
	// Group by spec so each reference stream is built once.
	slices.SortFunc(keys, func(a, b frameKey) int {
		if a.spec != b.spec {
			return a.spec - b.spec
		}
		return int(a.index) - int(b.index)
	})
	var groups [][]frameKey
	for i, k := range keys {
		if i == 0 || k.spec != keys[i-1].spec {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], k)
	}
	var (
		mu      sync.Mutex
		bad     int
		errs    []error
		wg      sync.WaitGroup
		pending = make(chan []frameKey)
	)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range pending {
				n, err := verifyGroup(cp, specs[g[0].spec], g, format)
				mu.Lock()
				bad += n
				errs = append(errs, err)
				mu.Unlock()
			}
		}()
	}
	for _, g := range groups {
		pending <- g
	}
	close(pending)
	wg.Wait()
	return bad, errors.Join(errs...)
}

// verifyGroup checks the frames of one spec.
func verifyGroup(cp *capture, spec *service.SessionSpec, keys []frameKey, format string) (int, error) {
	if spec == nil {
		return len(keys), fmt.Errorf("verify: no spec for frame key %v", keys[0])
	}
	stream, err := service.NewStreamFromSpec(spec, service.Limits{})
	if err != nil {
		return len(keys), fmt.Errorf("verify: reference stream: %w", err)
	}
	cur, err := stream.NewCursor()
	if err != nil {
		return len(keys), err
	}
	var (
		blk rayleigh.Block
		enc service.FrameEncoder
		buf bytes.Buffer
		bad int
	)
	for _, k := range keys {
		if err := cur.BlockAt(k.index, &blk); err != nil {
			return len(keys), err
		}
		if format == service.FormatNDJSON {
			if !sameNDJSON(cp.lines[k], k.index, blk.Envelopes) {
				bad++
			}
			continue
		}
		buf.Reset()
		if _, err := enc.Encode(&buf, k.index, &blk, false); err != nil {
			return len(keys), err
		}
		if maphash.Bytes(cp.seed, buf.Bytes()) != cp.digests[k] {
			bad++
		}
	}
	return bad, nil
}

// sameNDJSON reports whether an NDJSON line carries block index with
// exactly the reference envelopes.
func sameNDJSON(line []byte, index uint64, want [][]float64) bool {
	var rec struct {
		Block     uint64      `json:"block"`
		Envelopes [][]float64 `json:"envelopes"`
	}
	if err := json.Unmarshal(line, &rec); err != nil || rec.Block != index || len(rec.Envelopes) != len(want) {
		return false
	}
	for j, row := range want {
		if !slices.Equal(rec.Envelopes[j], row) {
			return false
		}
	}
	return true
}
