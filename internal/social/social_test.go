package social

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func newApp(t *testing.T) *App {
	t.Helper()
	app, err := New(Config{Users: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	return app
}

func TestComposePostFullFanout(t *testing.T) {
	app := newApp(t)
	post, err := app.ComposePost("user1",
		"hi @user2 check https://example.com/long/path and @user3!", []uint64{7, 8})
	if err != nil {
		t.Fatal(err)
	}
	if post.ID == 0 {
		t.Fatal("UniqueID service did not assign an id")
	}
	if len(post.Mentions) != 2 || post.Mentions[0] != "user2" || post.Mentions[1] != "user3" {
		t.Fatalf("mentions = %v", post.Mentions)
	}
	if len(post.URLs) != 1 || !strings.HasPrefix(post.URLs[0], "https://dg.gr/") {
		t.Fatalf("urls = %v", post.URLs)
	}
	if orig, ok := app.ResolveShortURL(post.URLs[0]); !ok || orig != "https://example.com/long/path" {
		t.Fatalf("short url resolution: %q %v", orig, ok)
	}
	if len(post.MediaIDs) != 2 || post.MediaIDs[0]&(1<<63) == 0 {
		t.Fatalf("media not processed: %v", post.MediaIDs)
	}
	if app.Composed.Load() != 1 {
		t.Fatal("composed counter")
	}
}

func TestComposeRejectsUnknownUser(t *testing.T) {
	app := newApp(t)
	if _, err := app.ComposePost("ghost", "hello", nil); err == nil {
		t.Fatal("post by unknown user accepted")
	}
}

func TestReadUserTimeline(t *testing.T) {
	app := newApp(t)
	for i := 0; i < 5; i++ {
		if _, err := app.ComposePost("user4", fmt.Sprintf("post number %d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	posts, err := app.ReadUserTimeline("user4", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 3 {
		t.Fatalf("timeline length = %d, want 3", len(posts))
	}
	// Newest first.
	if posts[0].Text != "post number 4" || posts[2].Text != "post number 2" {
		t.Fatalf("timeline order: %q ... %q", posts[0].Text, posts[2].Text)
	}
	for _, p := range posts {
		if p.Author != "user4" {
			t.Fatalf("foreign post in timeline: %+v", p)
		}
	}
	// Unknown user: empty timeline, no error.
	posts, err = app.ReadUserTimeline("nobody", 10)
	if err != nil || len(posts) != 0 {
		t.Fatalf("unknown user timeline: %d posts, %v", len(posts), err)
	}
}

func TestTimelineLengthBound(t *testing.T) {
	app, err := New(Config{Users: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	const posts = timelineLength + 3
	for i := 0; i < posts; i++ {
		if _, err := app.ComposePost("user0", fmt.Sprintf("p%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	tl, err := app.ReadUserTimeline("user0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != timelineLength {
		t.Fatalf("timeline retained %d, want %d", len(tl), timelineLength)
	}
	if want := fmt.Sprintf("p%d", posts-1); tl[0].Text != want {
		t.Fatalf("newest = %q, want %q", tl[0].Text, want)
	}
}

func TestConcurrentComposers(t *testing.T) {
	app := newApp(t)
	const writers, perWriter = 6, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			author := fmt.Sprintf("user%d", w)
			for i := 0; i < perWriter; i++ {
				if _, err := app.ComposePost(author, fmt.Sprintf("from %s #%d", author, i), nil); err != nil {
					t.Errorf("%s: %v", author, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if app.Composed.Load() != writers*perWriter {
		t.Fatalf("composed = %d", app.Composed.Load())
	}
	// Post IDs are unique across writers.
	seen := map[uint64]bool{}
	for w := 0; w < writers; w++ {
		posts, err := app.ReadUserTimeline(fmt.Sprintf("user%d", w), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(posts) != perWriter {
			t.Fatalf("user%d timeline = %d", w, len(posts))
		}
		for _, p := range posts {
			if seen[p.ID] {
				t.Fatalf("duplicate post id %d", p.ID)
			}
			seen[p.ID] = true
		}
	}
}

func TestPostCodecRoundTrip(t *testing.T) {
	p := Post{
		ID: 42, Author: "user1", Text: "hello @x https://a.b",
		Mentions: []string{"x"}, URLs: []string{"https://dg.gr/1"},
		MediaIDs: []uint64{1 << 63},
	}
	got, err := decodePost(p.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != p.ID || got.Author != p.Author || got.Text != p.Text ||
		len(got.Mentions) != 1 || got.Mentions[0] != "x" ||
		len(got.URLs) != 1 || got.URLs[0] != p.URLs[0] ||
		len(got.MediaIDs) != 1 || got.MediaIDs[0] != p.MediaIDs[0] {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestBackendsAreExercised(t *testing.T) {
	app := newApp(t)
	if _, err := app.ComposePost("user2", "check @user5", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := app.ReadUserTimeline("user2", 1); err != nil {
		t.Fatal(err)
	}
	// The post went through MICA-backed storage and the user check through
	// the memcached-backed cache.
	micaSets := uint64(0)
	for i := 0; i < app.postStore.NumPartitions(); i++ {
		micaSets += app.postStore.Partition(i).Sets
	}
	if micaSets == 0 {
		t.Fatal("post storage (MICA) never written")
	}
	if app.userCache.Hits.Load() == 0 {
		t.Fatal("user cache (memcached) never read")
	}
}
