package blocks

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Lease is a worker's claim on one block, persisted as a JSON file whose
// *existence* is the claim: the file is linked into place fully written
// (write temp, then link(2), which fails if the path exists), so claiming
// is atomic and no reader ever observes a half-written lease. At most one
// worker holds an unexpired lease per block. The contents exist for
// observability (-status) and for expiry.
//
// Leases are time-bounded rather than pid-bounded because workers may run
// on different machines sharing the directory: a crashed worker simply
// stops renewing, its lease expires, and any worker may then reclaim the
// block. Expiry compares wall clocks across machines, so the TTL should
// comfortably exceed both the block wall time and plausible clock skew.
type Lease struct {
	// Block is the claimed block's manifest ID.
	Block int `json:"block"`
	// Worker names the claiming process (WorkerOptions.Name).
	Worker string `json:"worker"`
	// PID and Host identify the process for operators; expiry, not
	// liveness probing, is the reclaim criterion.
	PID  int    `json:"pid"`
	Host string `json:"host"`
	// AcquiredUnixMS and ExpiresUnixMS bound the claim in wall-clock
	// milliseconds; renewal rewrites the file with a pushed-out expiry.
	AcquiredUnixMS int64 `json:"acquired_unix_ms"`
	ExpiresUnixMS  int64 `json:"expires_unix_ms"`
	// ManifestHash pins the lease to its run.
	ManifestHash string `json:"manifest_hash"`
}

// Expired reports whether the lease has lapsed at the given time.
func (l Lease) Expired(now time.Time) bool {
	return now.UnixMilli() > l.ExpiresUnixMS
}

// readLease parses a lease file. A missing file returns os.IsNotExist.
func readLease(path string) (Lease, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Lease{}, err
	}
	var l Lease
	if err := json.Unmarshal(data, &l); err != nil {
		return Lease{}, fmt.Errorf("blocks: lease %s: %w", path, err)
	}
	return l, nil
}

// claimResult says how a claim attempt ended.
type claimResult int

const (
	claimWon       claimResult = iota // we hold the lease
	claimHeld                         // someone else holds an unexpired lease
	claimReclaimed                    // we hold it after breaking an expired lease
)

// claim attempts to acquire the block's lease. It reads an existing lease
// first: a held lease is the common outcome while several workers poll a
// run, and settling it needs no write. An absent or expired lease falls
// through to the atomic path. The fresh-claim path is a single atomic
// create (tryCreateLease). The reclaim path first renames the expired
// lease to a unique stale name — rename is atomic, so exactly one of
// several contending workers wins the break — and then competes on the
// normal create.
func claim(dir string, m *Manifest, block int, worker string, ttl time.Duration, now time.Time) (claimResult, error) {
	path := LeasePath(dir, block)
	if held, err := readLease(path); err == nil {
		if blocked, err := heldAgainst(path, held, m, now); blocked || err != nil {
			return claimHeld, err
		}
	} else if !os.IsNotExist(err) {
		return claimHeld, err
	}
	reclaimed := false
	for attempt := 0; attempt < 2; attempt++ {
		res, err := tryCreateLease(path, m, block, worker, ttl, now)
		if err == nil {
			if res && reclaimed {
				return claimReclaimed, nil
			}
			if res {
				return claimWon, nil
			}
		} else {
			return claimHeld, err
		}
		// Creation lost: inspect the holder.
		held, err := readLease(path)
		if os.IsNotExist(err) {
			continue // holder finished or was broken between our calls; retry
		}
		if err != nil {
			return claimHeld, err
		}
		if blocked, err := heldAgainst(path, held, m, now); blocked || err != nil {
			return claimHeld, err
		}
		// Expired: break it. Only one contender's rename succeeds.
		stale := fmt.Sprintf("%s.stale-%d-%d", path, now.UnixNano(), os.Getpid())
		if err := os.Rename(path, stale); err != nil {
			if os.IsNotExist(err) {
				continue // another worker broke it first; compete on create
			}
			return claimHeld, fmt.Errorf("blocks: breaking lease %s: %w", path, err)
		}
		os.Remove(stale)
		reclaimed = true
	}
	return claimHeld, nil
}

// heldAgainst reports whether an existing lease stops this run's claim:
// an unexpired lease does, and a lease of another manifest is an error.
func heldAgainst(path string, held Lease, m *Manifest, now time.Time) (bool, error) {
	if held.ManifestHash != m.Hash {
		return true, fmt.Errorf("blocks: lease %s belongs to manifest %s, this run is %s", path, held.ManifestHash, m.Hash)
	}
	return !held.Expired(now), nil
}

// tryCreateLease attempts the atomic create: the lease is written to a
// temp file first and then hard-linked to its final name, so the claim is
// exclusive (link fails when the path exists, like O_EXCL) *and* the file
// only ever appears fully written — a concurrent reader can never observe
// a lease created but not yet filled in. It returns (false, nil) when the
// path already exists.
func tryCreateLease(path string, m *Manifest, block int, worker string, ttl time.Duration, now time.Time) (bool, error) {
	l := leaseFor(m, block, worker, ttl, now)
	data, err := json.Marshal(l)
	if err != nil {
		return false, fmt.Errorf("blocks: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return false, fmt.Errorf("blocks: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return false, fmt.Errorf("blocks: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return false, fmt.Errorf("blocks: %w", err)
	}
	if err := os.Link(tmp.Name(), path); err != nil {
		if os.IsExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("blocks: %w", err)
	}
	return true, nil
}

// leaseFor builds the lease record a claim or renewal writes.
func leaseFor(m *Manifest, block int, worker string, ttl time.Duration, now time.Time) Lease {
	host, _ := os.Hostname()
	return Lease{
		Block:          block,
		Worker:         worker,
		PID:            os.Getpid(),
		Host:           host,
		AcquiredUnixMS: now.UnixMilli(),
		ExpiresUnixMS:  now.Add(ttl).UnixMilli(),
		ManifestHash:   m.Hash,
	}
}

// renew pushes the lease's expiry out by ttl from now, via atomic rewrite.
// Renewal is best-effort: a renew that races a reclaim (possible only
// after the lease already expired, i.e. after renewal was late by a full
// TTL) recreates the lease, and the journal commit protocol keeps even
// that pathological double-execution harmless — both workers compute
// byte-identical journals and the last rename wins (see Work).
func renew(dir string, m *Manifest, block int, worker string, ttl time.Duration, now time.Time) error {
	l := leaseFor(m, block, worker, ttl, now)
	data, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("blocks: %w", err)
	}
	return atomicWrite(LeasePath(dir, block), append(data, '\n'))
}

// release drops the worker's lease after the block's journal is committed.
func release(dir string, block int) error {
	if err := os.Remove(LeasePath(dir, block)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("blocks: %w", err)
	}
	return nil
}
