package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// diskMagic versions the on-disk artifact framing. An artifact file is
//
//	cpxdisk1 <sha256-of-body-hex> <body-len>\n<body>
//
// so a reader can verify the payload without trusting the filename, and
// a format change can never be misparsed as the old one.
const diskMagic = "cpxdisk1"

// DiskCache is the persistent artifact tier under the in-memory result
// cache: content-addressed files keyed by the request's cache key, one
// artifact per file, fanned out over 256 subdirectories by the key's
// first byte. Determinism of the model and the simulator is what makes
// the tier sound across restarts: recomputing a key would reproduce the
// identical bytes, so an artifact written by any past process of the
// same cacheSchema is as good as a fresh computation.
//
// Writes go to a temp file in the root and are published with an atomic
// rename, so readers never observe a partial artifact — at worst they
// miss and recompute. Reads verify the embedded sha256 before returning;
// a corrupt or truncated file (torn write on crash, bit rot) is deleted
// and treated as a miss. Both properties together make cross-process
// races benign: concurrent writers of one key write byte-identical
// content, and the loser's rename simply replaces an equal file.
type DiskCache struct {
	root string

	puts    atomic.Uint64
	putErrs atomic.Uint64
	hits    atomic.Uint64
	rejects atomic.Uint64 // corrupt artifacts deleted on read
}

// NewDiskCache opens (creating if needed) a disk tier rooted at dir.
func NewDiskCache(dir string) (*DiskCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: disk cache dir is empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: disk cache root: %w", err)
	}
	return &DiskCache{root: dir}, nil
}

// path maps a cache key (a hex sha256 digest) to its artifact file.
func (d *DiskCache) path(key string) (string, error) {
	if len(key) < 4 || !isHex(key) {
		return "", fmt.Errorf("serve: malformed cache key %q", key)
	}
	return filepath.Join(d.root, key[:2], key[2:]), nil
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// Get returns the verified artifact for key, or ok=false on a miss. A
// file that fails framing or digest verification is removed so the next
// computation can replace it.
func (d *DiskCache) Get(key string) ([]byte, bool) {
	p, err := d.path(key)
	if err != nil {
		return nil, false
	}
	raw, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	body, ok := decodeArtifact(raw)
	if !ok {
		d.rejects.Add(1)
		os.Remove(p)
		return nil, false
	}
	d.hits.Add(1)
	return body, true
}

// decodeArtifact parses and verifies the framed file content.
func decodeArtifact(raw []byte) ([]byte, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, false
	}
	var magic, sum string
	var n int
	if _, err := fmt.Sscanf(string(raw[:nl]), "%s %s %d", &magic, &sum, &n); err != nil {
		return nil, false
	}
	body := raw[nl+1:]
	if magic != diskMagic || n != len(body) {
		return nil, false
	}
	got := sha256.Sum256(body)
	if hex.EncodeToString(got[:]) != sum {
		return nil, false
	}
	return body, true
}

// Put stores an artifact: framed with its own sha256, written to a temp
// file, published by atomic rename. Errors are returned for accounting
// but the caller treats the tier as best-effort — a failed Put only
// costs a future recomputation.
func (d *DiskCache) Put(key string, body []byte) error {
	err := d.put(key, body)
	if err != nil {
		d.putErrs.Add(1)
	} else {
		d.puts.Add(1)
	}
	return err
}

func (d *DiskCache) put(key string, body []byte) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(d.root, "put-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(artifactHeader(body))
	if werr == nil {
		_, werr = f.Write(body)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// artifactHeader is the framing line put writes before body.
func artifactHeader(body []byte) []byte {
	return fmt.Appendf(nil, "%s %x %d\n", diskMagic, sha256.Sum256(body), len(body))
}

// Stats reports lifetime counters: artifacts written, write failures,
// verified reads and corrupt files rejected.
func (d *DiskCache) Stats() (puts, putErrs, hits, rejects uint64) {
	return d.puts.Load(), d.putErrs.Load(), d.hits.Load(), d.rejects.Load()
}
