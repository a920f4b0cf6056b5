package statestore

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestCreateGetSetDelete(t *testing.T) {
	s := New()
	if err := s.Create("/a", []byte("1"), 0); err != nil {
		t.Fatalf("Create: %v", err)
	}
	got, err := s.Get("/a")
	if err != nil || string(got) != "1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := s.Set("/a", []byte("2")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	got, _ = s.Get("/a")
	if string(got) != "2" {
		t.Fatalf("after Set, Get = %q", got)
	}
	if !s.Exists("/a") {
		t.Error("Exists(/a) false")
	}
	if err := s.Delete("/a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if s.Exists("/a") {
		t.Error("Exists after delete")
	}
}

func TestErrors(t *testing.T) {
	s := New()
	if err := s.Create("/a", nil, 0); err != nil {
		t.Fatalf("Create: %v", err)
	}
	tests := []struct {
		name string
		op   func() error
		want error
	}{
		{"duplicate create", func() error { return s.Create("/a", nil, 0) }, ErrNodeExists},
		{"create root", func() error { return s.Create("/", nil, 0) }, ErrNodeExists},
		{"missing parent", func() error { return s.Create("/x/y", nil, 0) }, ErrNoParent},
		{"get missing", func() error { _, err := s.Get("/nope"); return err }, ErrNoNode},
		{"set missing", func() error { return s.Set("/nope", nil) }, ErrNoNode},
		{"delete missing", func() error { return s.Delete("/nope") }, ErrNoNode},
		{"children of missing", func() error { _, err := s.Children("/nope"); return err }, ErrNoNode},
		{"relative path", func() error { return s.Create("x", nil, 0) }, ErrBadPath},
		{"empty path", func() error { _, err := s.Get(""); return err }, ErrBadPath},
		{"create with dead session", func() error { return s.Create("/b", nil, 42) }, ErrNoSession},
		{"expire unknown session", func() error { return s.ExpireSession(42) }, ErrNoSession},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.op(); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestDeleteNonEmpty(t *testing.T) {
	s := New()
	if err := s.Create("/a", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("/a/b", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/a"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("Delete non-empty = %v", err)
	}
	if err := s.Delete("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/a"); err != nil {
		t.Fatal(err)
	}
}

func TestChildren(t *testing.T) {
	s := New()
	for _, p := range []string{"/sup", "/sup/n2", "/sup/n1", "/sup/n1/deep", "/other"} {
		if err := s.Create(p, nil, 0); err != nil {
			t.Fatalf("Create %s: %v", p, err)
		}
	}
	got, err := s.Children("/sup")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "n1" || got[1] != "n2" {
		t.Fatalf("Children = %v", got)
	}
	root, err := s.Children("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(root) != 2 || root[0] != "other" || root[1] != "sup" {
		t.Fatalf("root children = %v", root)
	}
}

func TestEphemeralNodesDieWithSession(t *testing.T) {
	s := New()
	if err := s.Create("/sup", nil, 0); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	if err := s.Create("/sup/worker", []byte("hb"), sess); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("/sup/worker/sub", nil, sess); err != nil {
		t.Fatal(err)
	}
	if err := s.ExpireSession(sess); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/sup/worker") || s.Exists("/sup/worker/sub") {
		t.Error("ephemeral nodes survived session expiry")
	}
	if !s.Exists("/sup") {
		t.Error("persistent parent deleted")
	}
}

func TestDeleteEphemeralBeforeExpiry(t *testing.T) {
	s := New()
	sess := s.NewSession()
	if err := s.Create("/e", nil, sess); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/e"); err != nil {
		t.Fatal(err)
	}
	// Expiry after manual delete must not error or resurrect.
	if err := s.ExpireSession(sess); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/e") {
		t.Error("node resurrected")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New()
	if err := s.Create("/a", []byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("/a")
	got[0] = 'X'
	again, _ := s.Get("/a")
	if string(again) != "abc" {
		t.Error("Get returned aliased data")
	}
}

func TestPathNormalization(t *testing.T) {
	s := New()
	if err := s.Create("/a", nil, 0); err != nil {
		t.Fatal(err)
	}
	if !s.Exists("/a/") {
		t.Error("trailing slash not normalized")
	}
	if !s.Exists("//a") {
		t.Error("double slash not normalized")
	}
}

func TestQuickCreateThenGetRoundTrips(t *testing.T) {
	f := func(name string, data []byte) bool {
		if name == "" {
			return true
		}
		// Restrict to a safe single-segment name.
		for _, r := range name {
			if r == '/' || r == 0 {
				return true
			}
		}
		s := New()
		p := "/" + name
		if err := s.Create(p, data, 0); err != nil {
			return false
		}
		got, err := s.Get(p)
		if err != nil {
			return false
		}
		return string(got) == string(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
