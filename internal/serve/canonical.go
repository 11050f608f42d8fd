package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// cacheSchema versions the cache key derivation: bump it whenever a
// spec type, a response schema, or the underlying model changes
// meaning, so stale artifacts from an older process image can never be
// confused with current ones (keys are per-process today, but the
// version also guards refactors within a release).
const cacheSchema = "v1"

// DecodeStrict parses a request body into spec, rejecting unknown
// fields and trailing garbage. Strictness is what makes
// canonicalisation sound: two bodies that differ in anything the spec
// does not capture are rejected rather than silently mapped to the
// same key. cpxsim -config decodes its scenario file with it too, so a
// file and a request body are held to one schema.
func DecodeStrict(r io.Reader, spec any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return err
	}
	// A second token means trailing input after the JSON value.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// canonicalize returns the canonical byte form of a decoded spec: the
// deterministic encoding/json serialisation of the typed value. Field
// order is the struct declaration order, numbers are re-formatted
// (1e4 and 10000 collapse), whitespace and input key order vanish, and
// omitted fields take their zero value — so any two request bodies
// that decode to the same spec share one canonical form.
func canonicalize(spec any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(spec); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// cacheKey derives the content address of a request: endpoint plus the
// canonical spec bytes, hashed. Because the virtual-time runtime is
// deterministic, equal keys imply bitwise-equal response artifacts,
// which is what lets the cache return stored bytes verbatim.
func cacheKey(endpoint string, canonical []byte) string {
	h := sha256.New()
	h.Write([]byte(cacheSchema))
	h.Write([]byte{'\n'})
	h.Write([]byte(endpoint))
	h.Write([]byte{'\n'})
	h.Write(canonical)
	return hex.EncodeToString(h.Sum(nil))
}
