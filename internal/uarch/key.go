package uarch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"braid/internal/isa"
)

// ModelVersion names the timing model. Any change to timing semantics
// changes golden Stats and must bump it, so results computed by an older
// simulator — checkpoint records, braidd cache entries, braidtune fronts —
// are never served for the current one. TestModelVersionPinsGoldens fails
// when the goldens change without a bump.
const ModelVersion = 1

// ImageHash is the hex SHA-256 of a serialized program image (the bytes
// isa.WriteImage produces): the program half of a point key.
func ImageHash(img []byte) string {
	sum := sha256.Sum256(img)
	return hex.EncodeToString(sum[:])
}

// ProgramHash serializes p and returns its ImageHash. Callers hash each
// program once and reuse the result for every point that runs it.
func ProgramHash(p *isa.Program) (string, error) {
	var buf bytes.Buffer
	if err := isa.WriteImage(&buf, p); err != nil {
		return "", fmt.Errorf("uarch: hashing program %q: %w", p.Name, err)
	}
	return ImageHash(buf.Bytes()), nil
}

// ConfigHash is the hex SHA-256 of cfg's canonical JSON — defaults resolved
// as Validate resolves them, so two spellings of one machine hash alike —
// the configuration half of a point key. The process-local fault injector
// is json-excluded, so it never reaches the hash.
func ConfigHash(cfg *Config) string {
	c := *cfg
	c.Validate()                // for its defaulting; an invalid config never simulates
	data, _ := json.Marshal(&c) // Config is plain data: marshaling cannot fail
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// PointKey identifies one simulation point everywhere a result is stored or
// routed — the experiments memo and checkpoint, braidd's result cache and
// request coalescing, and the remote pool's ring: the program image hash,
// the config hash, the sampling geometry ("exact" for exact runs) and
// ModelVersion. The simulator is deterministic, so equal keys mean equal
// results, and a record from another program, config, geometry or model
// carries a key no request asks for.
func PointKey(progHash, confHash string, sp Sampling) string {
	geom := "exact"
	if sp.Enabled() {
		geom = "s" + sp.String()
	}
	return progHash + ":" + confHash + ":" + geom + ":m" + strconv.Itoa(ModelVersion)
}
