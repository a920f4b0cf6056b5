package statestore

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// scanChildren lists a node's children by a prefix scan over the whole
// key space, the way the store did before it kept a child index. It is
// the reference the index must agree with.
func scanChildren(s *Store, p string) []string {
	prefix := p
	if prefix != "/" {
		prefix += "/"
	}
	var out []string
	for candidate := range s.nodes {
		if candidate == p || !strings.HasPrefix(candidate, prefix) {
			continue
		}
		rest := candidate[len(prefix):]
		if !strings.Contains(rest, "/") {
			out = append(out, rest)
		}
	}
	sort.Strings(out)
	return out
}

// modelNode is what TestIndexMatchesScan expects at a path.
type modelNode struct {
	data    string
	version int64
	owner   SessionID
}

// TestIndexMatchesScan drives seeded random sequences of Create, Set,
// Delete and ExpireSession over a three-level tree of persistent and
// ephemeral nodes. After every step:
//   - Children and ChildVersions agree with scanChildren, and so does
//     Delete's ErrNotEmpty;
//   - the key space, data and versions match a model in which versions
//     restart at 0 on re-create, and every node's parent exists;
//   - no buffer a caller passed to Set, or got from an earlier Get, sees
//     stored data change.
func TestIndexMatchesScan(t *testing.T) {
	paths := []string{"/"}
	for _, a := range []string{"a", "b", "c"} {
		paths = append(paths, "/"+a)
		for _, b := range []string{"a", "b", "c"} {
			paths = append(paths, "/"+a+"/"+b)
			for _, c := range []string{"a", "b"} {
				paths = append(paths, "/"+a+"/"+b+"/"+c)
			}
		}
	}
	type held struct {
		got  []byte
		want string
	}
	var notEmpty, ephemeralRefused, recreated, nestedEphemeral, expiredNodes int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		model := map[string]modelNode{"/": {}}
		everCreated := map[string]bool{}
		var live, dead []SessionID
		var gets []held
		for step := 0; step < 400; step++ {
			p := paths[1+rng.Intn(len(paths)-1)]
			var err, want error
			switch r := rng.Intn(20); {
			case r < 8: // Create
				var sess SessionID
				switch {
				case r < 3 || len(live) == 0:
				case r == 7 && len(dead) > 0:
					sess = dead[rng.Intn(len(dead))]
				default:
					sess = live[rng.Intn(len(live))]
				}
				dir, _ := split(p)
				parent, parentOK := model[dir]
				_, exists := model[p]
				switch {
				case sess != 0 && slices.Contains(dead, sess):
					want = ErrNoSession
				case exists:
					want = ErrNodeExists
				case !parentOK:
					want = ErrNoParent
				case parent.owner != 0 && parent.owner != sess:
					want = ErrNoChildrenForEphemerals
					ephemeralRefused++
				}
				data := []byte{byte(step), byte(seed)}
				stored := string(data)
				err = s.Create(p, data, sess)
				data[0] ^= 0xff // the caller's buffer is its own
				if want == nil {
					if everCreated[p] {
						recreated++
					}
					if parent.owner != 0 {
						nestedEphemeral++
					}
					everCreated[p] = true
					model[p] = modelNode{data: stored, owner: sess}
				}
			case r < 14: // Set
				node, ok := model[p]
				if !ok {
					want = ErrNoNode
				} else {
					before, gerr := s.Get(p)
					if gerr != nil {
						t.Fatalf("seed %d step %d: Get(%s): %v", seed, step, p, gerr)
					}
					gets = append(gets, held{before, string(before)})
				}
				data := []byte{byte(step), byte(step >> 8), byte(seed)}
				err = s.Set(p, data)
				if want == nil {
					node.data = string(data)
					node.version++
					model[p] = node
				}
				for i := range data {
					data[i] = 'X'
				}
			case r < 18: // Delete
				_, ok := model[p]
				switch {
				case !ok:
					want = ErrNoNode
				case len(scanChildren(s, p)) > 0:
					want = ErrNotEmpty
					notEmpty++
				}
				err = s.Delete(p)
				if want == nil {
					delete(model, p)
				}
			case r == 18: // ExpireSession
				if len(live) == 0 || rng.Intn(4) == 0 {
					want = ErrNoSession
					err = s.ExpireSession(SessionID(1000 + step))
					break
				}
				i := rng.Intn(len(live))
				id := live[i]
				live = slices.Delete(live, i, i+1)
				dead = append(dead, id)
				for q, node := range model {
					if node.owner == id {
						delete(model, q)
						expiredNodes++
					}
				}
				err = s.ExpireSession(id)
			default:
				live = append(live, s.NewSession())
				continue
			}
			if !errors.Is(err, want) {
				t.Fatalf("seed %d step %d on %s: err = %v, want %v", seed, step, p, err, want)
			}
			checkAgainstScan(t, s, model, paths)
			for _, h := range gets {
				if string(h.got) != h.want {
					t.Fatalf("seed %d step %d: an earlier Get result changed to %q, was %q",
						seed, step, h.got, h.want)
				}
			}
		}
	}
	if notEmpty == 0 || ephemeralRefused == 0 || recreated == 0 || nestedEphemeral == 0 || expiredNodes == 0 {
		t.Fatalf("sequences lost coverage: %d not-empty deletes, %d ephemeral refusals, %d re-creates, %d nested ephemerals, %d expired nodes",
			notEmpty, ephemeralRefused, recreated, nestedEphemeral, expiredNodes)
	}
}

// checkAgainstScan compares every path's node, children and versions
// with the model and the scan reference.
func checkAgainstScan(t *testing.T, s *Store, model map[string]modelNode, paths []string) {
	t.Helper()
	if len(s.nodes) != len(model) {
		t.Fatalf("store holds %d nodes, model %d", len(s.nodes), len(model))
	}
	for q := range s.nodes {
		if q == "/" {
			continue
		}
		if dir, _ := split(q); s.nodes[dir] == nil {
			t.Fatalf("%s outlived its parent %s", q, dir)
		}
	}
	for _, p := range paths {
		node, ok := model[p]
		if s.Exists(p) != ok {
			t.Fatalf("Exists(%s) disagrees with the model (%v)", p, ok)
		}
		names, err := s.Children(p)
		versions, verr := s.ChildVersions(p)
		if !ok {
			if !errors.Is(err, ErrNoNode) || !errors.Is(verr, ErrNoNode) {
				t.Fatalf("missing %s: Children err %v, ChildVersions err %v", p, err, verr)
			}
			continue
		}
		if err != nil || verr != nil {
			t.Fatalf("%s: Children err %v, ChildVersions err %v", p, err, verr)
		}
		want := scanChildren(s, p)
		if !slices.Equal(names, want) {
			t.Fatalf("Children(%s) = %v, scan %v", p, names, want)
		}
		if len(versions) != len(want) {
			t.Fatalf("ChildVersions(%s) = %v, scan %v", p, versions, want)
		}
		for i, cv := range versions {
			q := strings.TrimSuffix(p, "/") + "/" + cv.Name
			if cv.Name != want[i] || cv.Version != model[q].version {
				t.Fatalf("ChildVersions(%s)[%d] = %+v, want {%s %d}", p, i, cv, want[i], model[q].version)
			}
		}
		if data, err := s.Get(p); err != nil || string(data) != node.data {
			t.Fatalf("Get(%s) = %q, %v; model %q", p, data, err, node.data)
		}
	}
}
