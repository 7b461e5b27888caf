package dbs3_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"dbs3"
	"dbs3/internal/server"
)

// TestPendingServedNodeGeneratesWhatItReads: a served node over a manager
// generates a declared relation when a statement it serves first names it,
// and no sooner. Installing the manager generates neither of two declared
// relations; a prepared and an ad-hoc statement over HTTP naming one of them
// generate it alone; a later statement naming the other generates it. Every
// answer matches the one a database settled before its first statement
// gives.
func TestPendingServedNodeGeneratesWhatItReads(t *testing.T) {
	ctx := context.Background()
	declare := func() *dbs3.Database {
		db := dbs3.New()
		if err := db.CreateWisconsin("short", 2_000, 8, "unique2", 1); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateWisconsin("wide", 4_000, 16, "unique2", 2); err != nil {
			t.Fatal(err)
		}
		return db
	}
	eager := declare()
	for _, name := range eager.Relations() {
		if _, err := eager.FragmentSizes(name); err != nil {
			t.Fatal(err)
		}
	}
	db := declare()
	srv := httptest.NewServer(server.New(db, db.Manager(dbs3.ManagerConfig{Budget: 4}), server.Config{}))
	defer srv.Close()
	client := &server.Client{Base: srv.URL, HTTP: srv.Client()}
	defer client.HTTP.CloseIdleConnections()
	pending := func(want string) {
		t.Helper()
		if got := strings.Join(db.Pending(), ","); got != want {
			t.Fatalf("pending [%s], want [%s]", got, want)
		}
	}
	// same checks that a stream carries the rows eager answers sql with.
	same := func(stream *server.RowStream, err error, sql string, args ...any) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var got []string
		for stream.Next() {
			got = append(got, fmt.Sprint(stream.Row()))
		}
		if err := stream.Err(); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		res, err := eager.QueryAllContext(ctx, sql, nil, args...)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(res.Data))
		for i, row := range res.Data {
			want[i] = fmt.Sprint(row)
		}
		slices.Sort(got)
		slices.Sort(want)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("%s: served %d rows, eagerly settled %d, or they differ", sql, len(got), len(want))
		}
	}

	pending("short,wide")
	const prepared = "SELECT unique1, stringu1 FROM short WHERE unique2 < ?"
	stmt, err := client.Prepare(ctx, prepared, nil)
	if err != nil {
		t.Fatal(err)
	}
	pending("wide")
	stream, err := client.Exec(ctx, stmt.ID, []any{50}, nil)
	same(stream, err, prepared, 50)
	const adHoc = "SELECT ten, COUNT(*) FROM short GROUP BY ten"
	stream, err = client.Query(ctx, adHoc, nil, nil)
	same(stream, err, adHoc)
	pending("wide")

	const later = "SELECT unique2, string4 FROM wide WHERE unique1 < ?"
	stream, err = client.Query(ctx, later, []any{100}, nil)
	same(stream, err, later, 100)
	pending("")
}
