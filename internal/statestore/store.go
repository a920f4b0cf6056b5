// Package statestore is an in-memory stand-in for Zookeeper (§2: Nimbus
// "communicates and coordinates with Zookeeper to maintain a consistent
// list of active worker nodes and to detect failure in the membership").
// It provides a hierarchical key space and ephemeral nodes bound to
// sessions — the subset of the Zookeeper contract Nimbus uses: supervisors
// register ephemeral nodes and heartbeat into them, Nimbus keeps
// topologies and assignments as persistent nodes, and it lists and reads
// the supervisors each round. Nimbus polls rather than registering
// watches, so the store has none.
//
// As in Zookeeper, every node carries a data version (Stat.version): 0
// when it is created, one more on every Set. ChildVersions lists a node's
// children with their versions under one lock hold, so a reader can see
// which children were written since it last looked without reading any
// data.
//
// Each node keeps its children sorted by name, each with its entry, as
// Zookeeper's DataNode keeps its child set. Create, Delete and
// ExpireSession maintain this child index, and Children, ChildVersions and
// Delete's emptiness check read it, so none of them scans the key space.
//
// Two Zookeeper refusals hold here too. The root cannot be deleted
// (ErrBadPath). An ephemeral node takes no children except ephemeral
// nodes of its own session, which die with it
// (ErrNoChildrenForEphemerals). Together they keep every node's parent in
// the store.
package statestore

import (
	"errors"
	"fmt"
	"path"
	"slices"
	"strings"
	"sync"
)

// Well-known errors, matchable with errors.Is.
var (
	// ErrNodeExists reports a Create on an existing path.
	ErrNodeExists = errors.New("node already exists")
	// ErrNoNode reports an operation on a missing path.
	ErrNoNode = errors.New("node does not exist")
	// ErrNoParent reports a Create whose parent path is missing.
	ErrNoParent = errors.New("parent node does not exist")
	// ErrNotEmpty reports a Delete on a node with children.
	ErrNotEmpty = errors.New("node has children")
	// ErrNoSession reports an operation with an expired or unknown
	// session.
	ErrNoSession = errors.New("session does not exist")
	// ErrBadPath reports a malformed path, or a Create or Delete of the
	// root.
	ErrBadPath = errors.New("bad path")
	// ErrNoChildrenForEphemerals reports a Create under an ephemeral node
	// of anything but an ephemeral node of the same session.
	ErrNoChildrenForEphemerals = errors.New("ephemeral node takes only ephemeral children of its session")
)

// SessionID identifies a client session; ephemeral nodes die with it.
type SessionID uint64

// ChildVersion is one child's name and data version, as ChildVersions
// lists them.
type ChildVersion struct {
	Name    string
	Version int64
}

type entry struct {
	data     []byte
	version  int64     // 0 at Create, +1 per Set
	owner    SessionID // 0 = persistent
	children []child   // sorted by name
}

// child is one entry of a node's child index.
type child struct {
	name string
	e    *entry
}

func byName(c child, name string) int { return strings.Compare(c.name, name) }

func (e *entry) link(name string, c *entry) {
	i, _ := slices.BinarySearchFunc(e.children, name, byName)
	e.children = slices.Insert(e.children, i, child{name, c})
}

func (e *entry) unlink(name string) {
	if i, ok := slices.BinarySearchFunc(e.children, name, byName); ok {
		e.children = slices.Delete(e.children, i, i+1)
	}
}

// Store is the in-memory hierarchical state store. It is safe for
// concurrent use.
type Store struct {
	mu          sync.Mutex
	nodes       map[string]*entry
	sessions    map[SessionID]map[string]bool // session -> owned paths
	nextSession SessionID
}

// New returns a Store containing only the root node "/".
func New() *Store {
	return &Store{
		nodes:    map[string]*entry{"/": {}},
		sessions: make(map[SessionID]map[string]bool),
	}
}

// normalize validates and cleans a path.
func normalize(p string) (string, error) {
	if p == "" || !strings.HasPrefix(p, "/") {
		return "", fmt.Errorf("%w: %q must be absolute", ErrBadPath, p)
	}
	clean := path.Clean(p)
	return clean, nil
}

// split returns a normalized path's parent and its last element. p must
// not be the root.
func split(p string) (dir, name string) {
	i := strings.LastIndexByte(p, '/')
	if i == 0 {
		return "/", p[1:]
	}
	return p[:i], p[i+1:]
}

// NewSession opens a session for ephemeral ownership.
func (s *Store) NewSession() SessionID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSession++
	id := s.nextSession
	s.sessions[id] = make(map[string]bool)
	return id
}

// ExpireSession deletes the session and every ephemeral node it owns.
func (s *Store) ExpireSession(id SessionID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	owned, ok := s.sessions[id]
	if !ok {
		return ErrNoSession
	}
	delete(s.sessions, id)
	for p := range owned {
		s.removeLocked(p)
	}
	return nil
}

// removeLocked deletes a node from the key space and from its parent's
// child index. A parent removed earlier in the same expiry needs no
// unlinking. Caller holds s.mu.
func (s *Store) removeLocked(p string) {
	delete(s.nodes, p)
	dir, name := split(p)
	if parent, ok := s.nodes[dir]; ok {
		parent.unlink(name)
	}
}

// Create adds a node. The parent must exist. With a non-zero session the
// node is ephemeral and dies with the session. An ephemeral parent takes
// only ephemeral children of its own session.
func (s *Store) Create(p string, data []byte, session SessionID) error {
	p, err := normalize(p)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("%w: /", ErrNodeExists)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if session != 0 {
		if _, ok := s.sessions[session]; !ok {
			return ErrNoSession
		}
	}
	if _, exists := s.nodes[p]; exists {
		return fmt.Errorf("%w: %s", ErrNodeExists, p)
	}
	dir, name := split(p)
	parent, ok := s.nodes[dir]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoParent, dir)
	}
	if parent.owner != 0 && parent.owner != session {
		return fmt.Errorf("%w: %s", ErrNoChildrenForEphemerals, dir)
	}
	e := &entry{data: append([]byte(nil), data...), owner: session}
	s.nodes[p] = e
	parent.link(name, e)
	if session != 0 {
		s.sessions[session][p] = true
	}
	return nil
}

// Set replaces a node's data and increments its version. The store keeps
// its own copy, so the caller may reuse data afterwards.
func (s *Store) Set(p string, data []byte) error {
	p, err := normalize(p)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.nodes[p]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoNode, p)
	}
	// Reusing the buffer is safe: Create and Get copy, so no caller holds
	// e.data.
	e.data = append(e.data[:0], data...)
	e.version++
	return nil
}

// Get returns a copy of a node's data.
func (s *Store) Get(p string) ([]byte, error) {
	p, err := normalize(p)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.nodes[p]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoNode, p)
	}
	return append([]byte(nil), e.data...), nil
}

// Exists reports whether a node exists.
func (s *Store) Exists(p string) bool {
	p, err := normalize(p)
	if err != nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.nodes[p]
	return ok
}

// Delete removes a childless node other than the root.
func (s *Store) Delete(p string) error {
	p, err := normalize(p)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("%w: cannot delete /", ErrBadPath)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.nodes[p]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoNode, p)
	}
	if len(e.children) > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, p)
	}
	s.removeLocked(p)
	if e.owner != 0 {
		if owned, ok := s.sessions[e.owner]; ok {
			delete(owned, p)
		}
	}
	return nil
}

// Children returns the names (not full paths) of a node's children,
// sorted.
func (s *Store) Children(p string) ([]string, error) {
	p, err := normalize(p)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.nodes[p]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoNode, p)
	}
	if len(e.children) == 0 {
		return nil, nil
	}
	out := make([]string, len(e.children))
	for i, c := range e.children {
		out[i] = c.name
	}
	return out, nil
}

// ChildVersions returns the name and data version of each of a node's
// children, sorted by name, read under one lock hold.
func (s *Store) ChildVersions(p string) ([]ChildVersion, error) {
	p, err := normalize(p)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.nodes[p]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoNode, p)
	}
	if len(e.children) == 0 {
		return nil, nil
	}
	out := make([]ChildVersion, len(e.children))
	for i, c := range e.children {
		out[i] = ChildVersion{Name: c.name, Version: c.e.version}
	}
	return out, nil
}
