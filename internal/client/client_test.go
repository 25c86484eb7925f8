package client

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	mmdb "repro"
	"repro/internal/dataset"
	"repro/internal/server"
)

func newPair(t *testing.T) (*Client, *mmdb.DB) {
	t.Helper()
	db, err := mmdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(db))
	t.Cleanup(func() {
		ts.Close()
		db.Close()
	})
	return New(ts.URL, ts.Client()), db
}

func TestClientRoundTrip(t *testing.T) {
	ctx := context.Background()
	c, _ := newPair(t)
	img := mmdb.NewFilledImage(10, 10, dataset.Blue)
	obj, err := c.InsertImageCtx(ctx, 0, "bluey", img)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Kind != "binary" || obj.W != 10 {
		t.Fatalf("inserted %+v", obj)
	}

	// Insert an edited version remotely.
	seq := &mmdb.Sequence{BaseID: obj.ID, Ops: mmdb.Recolor(mmdb.R(0, 0, 10, 10),
		[2]mmdb.RGB{dataset.Blue, dataset.Red})}
	eobj, err := c.InsertSequenceCtx(ctx, 0, "red-version", seq)
	if err != nil {
		t.Fatal(err)
	}
	if eobj.BaseID != obj.ID || eobj.Ops != 2 {
		t.Fatalf("edited %+v", eobj)
	}

	// List and Get.
	list, err := c.ListCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list %v", list)
	}
	got, err := c.GetCtx(ctx, eobj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Script == "" {
		t.Fatal("script missing from Get")
	}

	// Query, both plain and expanded.
	res, err := c.QueryCtx(ctx, "at least 50% red", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.IDs[0] != eobj.ID {
		t.Fatalf("query %v", res.IDs)
	}
	res, err = c.QueryCtx(ctx, "at least 50% red", "rbm", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 2 {
		t.Fatalf("expanded %v", res.IDs)
	}

	// Materialize the edited image through the API.
	inst, err := c.ImageCtx(ctx, eobj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if inst.CountColor(dataset.Red) != 100 {
		t.Fatal("instantiated raster wrong")
	}

	// Similarity search.
	matches, err := c.SimilarCtx(ctx, mmdb.NewFilledImage(10, 10, dataset.Blue), 1, "l2")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].ID != obj.ID {
		t.Fatalf("similar %v", matches)
	}

	// Stats.
	st, err := c.StatsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Catalog.Images != 2 {
		t.Fatalf("stats %+v", st.Catalog)
	}

	// Delete: the base is blocked, then deletable.
	err = c.DeleteCtx(ctx, obj.ID)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 409 {
		t.Fatalf("conflict delete: %v", err)
	}
	if err := c.DeleteCtx(ctx, eobj.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteCtx(ctx, obj.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetCtx(ctx, obj.ID); err == nil {
		t.Fatal("get after delete succeeded")
	}

	// Compact (no-op on memory DB, but must round-trip).
	if err := c.Compact(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestClientAugment(t *testing.T) {
	ctx := context.Background()
	c, db := newPair(t)
	obj, err := c.InsertImageCtx(ctx, 0, "f", dataset.Flags(1, 24, 16, 1)[0].Img)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := c.Augment(ctx, obj.ID, mmdb.AugmentOptions{PerBase: 3, OpsPerImage: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || len(db.EditedIDs()) != 3 {
		t.Fatalf("augment %v", ids)
	}
}

func TestClientErrors(t *testing.T) {
	ctx := context.Background()
	c, _ := newPair(t)
	if _, err := c.GetCtx(ctx, 999); err == nil {
		t.Fatal("missing object resolved")
	}
	if _, err := c.QueryCtx(ctx, "gibberish", "", false); err == nil {
		t.Fatal("bad query accepted")
	}
	var apiErr *APIError
	_, err := c.QueryCtx(ctx, "gibberish", "", false)
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("error shape: %v", err)
	}
	if apiErr.Error() == "" {
		t.Fatal("empty error text")
	}
	if _, err := c.ImageCtx(ctx, 999); err == nil {
		t.Fatal("missing image resolved")
	}
	// Server down.
	dead := New("http://127.0.0.1:1", nil)
	if _, err := dead.ListCtx(ctx); err == nil {
		t.Fatal("dead server reachable")
	}
}

func TestClientExplain(t *testing.T) {
	ctx := context.Background()
	c, db := newPair(t)
	base, _ := db.InsertImageCtx(ctx, "b", mmdb.NewFilledImage(8, 8, dataset.Blue))
	db.InsertEditedCtx(ctx, "e", &mmdb.Sequence{BaseID: base, Ops: mmdb.Recolor(mmdb.R(0, 0, 8, 8),
		[2]mmdb.RGB{dataset.Blue, dataset.Red})})

	plan, err := c.Explain(ctx, "at least 50% blue")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Binaries != 1 || plan.BaseMatches != 1 || plan.SkippedByBWM != 1 {
		t.Fatalf("plan %+v", plan)
	}
	if _, err := c.Explain(ctx, "gibberish"); err == nil {
		t.Fatal("bad explain accepted")
	}
}

func TestClientContext(t *testing.T) {
	c, db := newPair(t)
	img := mmdb.NewFilledImage(8, 8, dataset.Red)
	if _, err := db.InsertImageCtx(context.Background(), "red", img); err != nil {
		t.Fatal(err)
	}

	// A canceled context aborts before the request is sent.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ListCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ListCtx with canceled ctx = %v, want context.Canceled", err)
	}
	if _, err := c.QueryCtx(ctx, "at least 0% red", "", false); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryCtx with canceled ctx = %v", err)
	}
	if err := c.Health(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Health with canceled ctx = %v", err)
	}

	// Live context: the ctx variants behave like their wrappers.
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health = %v", err)
	}
	res, err := c.MultiRangeCtx(context.Background(), []int{0, 1}, 0, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) == 0 {
		t.Fatal("full-range multirange should match the red image")
	}
}

func TestClientInsertWithID(t *testing.T) {
	ctx := context.Background()
	c, db := newPair(t)
	img := mmdb.NewFilledImage(8, 8, dataset.Blue)
	obj, err := c.InsertImageCtx(ctx, 41, "blue41", img)
	if err != nil {
		t.Fatal(err)
	}
	if obj.ID != 41 {
		t.Fatalf("explicit id insert returned %d", obj.ID)
	}
	if _, err := db.Get(41); err != nil {
		t.Fatal(err)
	}
	// Conflicts surface as APIError 409.
	_, err = c.InsertImageCtx(ctx, 41, "dup", img)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 409 {
		t.Fatalf("duplicate id error = %v, want 409", err)
	}
}

// Limit and After page through an answer: each page's last id is the next
// request's cursor.
func TestClientPaging(t *testing.T) {
	c, db := newPair(t)
	for i := 0; i < 5; i++ {
		if _, err := db.InsertImageCtx(context.Background(), "b", mmdb.NewFilledImage(8, 8, dataset.Blue)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	var got []uint64
	for after := uint64(0); ; {
		page, err := c.QueryCtx(ctx, "at least 50% blue", "", false, Limit(2), After(after))
		if err != nil {
			t.Fatal(err)
		}
		if len(page.IDs) > 2 {
			t.Fatalf("page of %d ids over limit 2", len(page.IDs))
		}
		if len(page.IDs) == 0 {
			break
		}
		got = append(got, page.IDs...)
		after = page.IDs[len(page.IDs)-1]
	}
	if fmt.Sprint(got) != "[1 2 3 4 5]" {
		t.Fatalf("paged ids %v", got)
	}
	tail, err := c.MultiRangeCtx(ctx, []int{0, 1, 2, 3}, 0, 1, "rbm", After(3))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(tail.IDs) != "[4 5]" {
		t.Fatalf("multirange after=3: %v", tail.IDs)
	}
}
