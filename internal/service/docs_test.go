package service

import (
	"os"
	"regexp"
	"testing"
)

// endpointRow matches one row of docs/api.md's endpoint tables:
// | `METHOD` | `/path` | request | response | `policy` |
var endpointRow = regexp.MustCompile("(?m)^\\| `([A-Z]+)` \\| `(/[^`]*)` \\|.*\\| `([A-Za-z]+)` \\|$")

var policyNames = map[policy]string{local: "local", anyReplica: "anyReplica", primary: "primary", fanOut: "fanOut"}

// TestDocsCoverRegisteredRoutes checks docs/api.md against the route
// table in both directions — every route has an endpoint row, every row
// is a route — and that each row names the route's ring policy. An
// endpoint cannot ship undocumented, and the page cannot rot when routes
// move.
func TestDocsCoverRegisteredRoutes(t *testing.T) {
	docs, err := os.ReadFile("../../docs/api.md")
	if err != nil {
		t.Fatalf("docs/api.md must exist and document every route: %v", err)
	}
	documented := map[string]string{}
	for _, m := range endpointRow.FindAllStringSubmatch(string(docs), -1) {
		pattern := m[1] + " " + m[2]
		if _, dup := documented[pattern]; dup {
			t.Errorf("%s has two rows in docs/api.md", pattern)
		}
		documented[pattern] = m[3]
	}
	table := map[string]bool{}
	for _, rte := range routes() {
		table[rte.pattern] = true
		doc, ok := documented[rte.pattern]
		switch {
		case !ok:
			t.Errorf("%s is not documented in docs/api.md", rte.pattern)
		case doc != policyNames[rte.policy]:
			t.Errorf("%s: docs/api.md says ring policy %q, the route table %q", rte.pattern, doc, policyNames[rte.policy])
		}
	}
	for pattern := range documented {
		if !table[pattern] {
			t.Errorf("docs/api.md documents %s, which is not in the route table", pattern)
		}
	}
}
