// Package statestore is an in-memory stand-in for Zookeeper (§2: Nimbus
// "communicates and coordinates with Zookeeper to maintain a consistent
// list of active worker nodes and to detect failure in the membership").
// It provides a hierarchical key space and ephemeral nodes bound to
// sessions — the subset of the Zookeeper contract Nimbus uses: supervisors
// register ephemeral nodes and heartbeat into them, Nimbus keeps
// topologies and assignments as persistent nodes, and it lists and reads
// the supervisors each round. Nimbus polls rather than registering
// watches, so the store has none.
package statestore

import (
	"errors"
	"fmt"
	"path"
	"sort"
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
	// ErrBadPath reports a malformed path.
	ErrBadPath = errors.New("bad path")
)

// SessionID identifies a client session; ephemeral nodes die with it.
type SessionID uint64

type entry struct {
	data  []byte
	owner SessionID // 0 = persistent
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
		delete(s.nodes, p)
	}
	return nil
}

// Create adds a node. The parent must exist. With a non-zero session the
// node is ephemeral and dies with the session.
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
	parent := path.Dir(p)
	if _, ok := s.nodes[parent]; !ok {
		return fmt.Errorf("%w: %s", ErrNoParent, parent)
	}
	s.nodes[p] = &entry{data: append([]byte(nil), data...), owner: session}
	if session != 0 {
		s.sessions[session][p] = true
	}
	return nil
}

// Set replaces a node's data.
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
	e.data = append([]byte(nil), data...)
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

// Delete removes a childless node.
func (s *Store) Delete(p string) error {
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
	if len(s.childrenLocked(p)) > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, p)
	}
	delete(s.nodes, p)
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
	if _, ok := s.nodes[p]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoNode, p)
	}
	return s.childrenLocked(p), nil
}

func (s *Store) childrenLocked(p string) []string {
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
