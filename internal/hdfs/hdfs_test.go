package hdfs

import (
	"testing"
)

func TestNewConfigDefaults(t *testing.T) {
	fs := mustNew(t, 10)
	if got := fs.Replication(); got != 3 {
		t.Errorf("Replication = %d, want 3", got)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{DataNodes: 0}); err == nil {
		t.Errorf("New with 0 data nodes succeeded")
	}
}

func TestReplicationCappedAtNodes(t *testing.T) {
	if got := mustNew(t, 2).Replication(); got != 2 {
		t.Errorf("Replication = %d, want capped at 2", got)
	}
}

func TestWriteEmptyFile(t *testing.T) {
	fs := mustNew(t, 2)
	mustWrite(t, fs, "/empty", 0)
	if got := fs.ListPrefix("/"); len(got) != 1 || got[0] != "/empty" {
		t.Errorf("ListPrefix = %v, want the empty file", got)
	}
	if got := fs.LogicalBytes("/"); got != 0 {
		t.Errorf("LogicalBytes = %d, want 0", got)
	}
}

func TestWriteErrors(t *testing.T) {
	fs := mustNew(t, 2)
	if err := fs.Write("relative/path", 10); err == nil {
		t.Errorf("Write with relative path succeeded")
	}
	if err := fs.Write("", 10); err == nil {
		t.Errorf("Write with empty path succeeded")
	}
	if err := fs.Write("/x", -1); err == nil {
		t.Errorf("Write with negative size succeeded")
	}
}

func TestDelete(t *testing.T) {
	fs := mustNew(t, 3)
	if err := fs.Delete("/a"); err == nil {
		t.Errorf("Delete before write succeeded")
	}
	mustWrite(t, fs, "/a", 10)
	mustWrite(t, fs, "/b", 5)
	if err := fs.Delete("/a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if got := fs.ListPrefix("/"); len(got) != 1 || got[0] != "/b" {
		t.Errorf("ListPrefix after delete = %v, want [/b]", got)
	}
	if got := fs.LogicalBytes("/"); got != 5 {
		t.Errorf("LogicalBytes after delete = %d, want 5", got)
	}
	if err := fs.Delete("/a"); err == nil {
		t.Errorf("double Delete succeeded")
	}
}

func TestLogicalBytes(t *testing.T) {
	fs := mustNew(t, 5)
	mustWrite(t, fs, "/prost/vp/p1", 500)
	mustWrite(t, fs, "/prost/pt/part0", 1500)
	mustWrite(t, fs, "/rya/spo", 700)
	if got := fs.LogicalBytes("/prost/"); got != 2000 {
		t.Errorf("LogicalBytes(/prost/) = %d, want 2000", got)
	}
	if got := fs.LogicalBytes("/"); got != 2700 {
		t.Errorf("LogicalBytes(/) = %d, want 2700", got)
	}
}

func TestOverwriteReleasesSpace(t *testing.T) {
	fs := mustNew(t, 3)
	mustWrite(t, fs, "/f", 300)
	before := fs.LogicalBytes("/")
	mustWrite(t, fs, "/f", 100)
	after := fs.LogicalBytes("/")
	if before != 300 || after != 100 {
		t.Errorf("logical bytes before/after overwrite = %d/%d, want 300/100", before, after)
	}
}

func TestListPrefix(t *testing.T) {
	fs := mustNew(t, 2)
	mustWrite(t, fs, "/b/2", 1)
	mustWrite(t, fs, "/b/1", 1)
	mustWrite(t, fs, "/a/1", 1)
	got := fs.ListPrefix("/b/")
	if len(got) != 2 || got[0] != "/b/1" || got[1] != "/b/2" {
		t.Errorf("ListPrefix = %v", got)
	}
	if n := len(fs.ListPrefix("/zzz")); n != 0 {
		t.Errorf("ListPrefix(/zzz) = %d entries", n)
	}
}

func mustNew(t *testing.T, dataNodes int) *FS {
	t.Helper()
	fs, err := New(Config{DataNodes: dataNodes})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func mustWrite(t *testing.T, fs *FS, path string, size int64) {
	t.Helper()
	if err := fs.Write(path, size); err != nil {
		t.Fatalf("Write(%q, %d): %v", path, size, err)
	}
}
