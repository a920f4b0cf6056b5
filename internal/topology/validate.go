package topology

import (
	"fmt"
	"strings"
)

// validateShape checks structural properties once the component and stream
// tables are assembled: spouts take no inputs, bolts have at least one
// input, there is at least one spout, and every component is reachable from
// some spout (otherwise it could never receive tuples): the spouts' BFS,
// t.bfs, must cover every component.
func validateShape(t *Topology) error {
	spouts := 0
	for _, name := range t.order {
		c := t.components[name]
		switch c.Kind {
		case KindSpout:
			spouts++
			if len(t.incoming[name]) > 0 {
				return fmt.Errorf("spout %q has incoming streams %v", name, t.incoming[name])
			}
		case KindBolt:
			if len(t.incoming[name]) == 0 {
				return fmt.Errorf("bolt %q has no incoming streams", name)
			}
		}
	}
	if spouts == 0 {
		return fmt.Errorf("topology has no spouts")
	}

	if len(t.bfs) != len(t.order) {
		reached := make(map[string]bool, len(t.bfs))
		for _, name := range t.bfs {
			reached[name] = true
		}
		var orphans []string
		for _, name := range t.order {
			if !reached[name] {
				orphans = append(orphans, name)
			}
		}
		return fmt.Errorf("components unreachable from any spout: %s", strings.Join(orphans, ", "))
	}
	return nil
}
