package uarch

import (
	"strconv"
	"strings"
	"testing"
)

// TestPointKeyParts: the key changes with each of its four parts, and two
// spellings of one machine (RetireWidth 0 means IssueWidth) share a key.
func TestPointKeyParts(t *testing.T) {
	cfg := OutOfOrderConfig(8)
	base := PointKey("p", ConfigHash(&cfg), Sampling{})
	if !strings.HasSuffix(base, ":exact:m"+strconv.Itoa(ModelVersion)) {
		t.Errorf("exact key %q does not end in its geometry and model version", base)
	}
	wider := OutOfOrderConfig(16)
	for _, other := range []string{
		PointKey("q", ConfigHash(&cfg), Sampling{}),
		PointKey("p", ConfigHash(&wider), Sampling{}),
		PointKey("p", ConfigHash(&cfg), Sampling{Period: 1000, Detail: 100, Warmup: 100}),
	} {
		if other == base {
			t.Errorf("distinct points share the key %q", base)
		}
	}
	spelled := cfg
	spelled.RetireWidth = spelled.IssueWidth
	if cfg.RetireWidth != 0 || ConfigHash(&spelled) != ConfigHash(&cfg) {
		t.Error("RetireWidth 0 and RetireWidth == IssueWidth hash differently")
	}
	armed := cfg
	armed.Inject = &FaultPlan{Kind: FaultBusyBit, AtCycle: 1}
	if ConfigHash(&armed) != ConfigHash(&cfg) {
		t.Error("the process-local fault plan reached the config hash")
	}
}
