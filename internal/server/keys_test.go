package server

import "testing"

// TestResolveKeyMatchesServer: the exported ResolveKey — what the
// cluster router places requests with — must produce byte-identical
// keys to the server's own resolve+cacheKey path for every option
// shape, or sharding would silently stop lining up with replica
// caches.
func TestResolveKeyMatchesServer(t *testing.T) {
	// Spellings of the default options: above the ceilings (which clamp
	// steps and timeout) and with every default written out.
	defaults := []RequestOptions{
		{MaxSteps: 1 << 40, TimeoutMS: 1 << 40},
		{MaxSteps: maxSteps, TimeoutMS: maxTimeout.Milliseconds()},
	}
	cases := append([]RequestOptions{
		{},
		{Algorithm: "baseline", Check: "paranoid"},
		{MaxSteps: 999, TimeoutMS: 50},
		{Check: "boundaries"},
	}, defaults...)
	for i, ro := range cases {
		resolved, _, err := resolve(ro)
		if err != nil {
			t.Fatalf("case %d: server resolve: %v", i, err)
		}
		want := cacheKey(smallSrc, resolved)
		got, err := ResolveKey(smallSrc, ro)
		if err != nil {
			t.Fatalf("case %d: ResolveKey: %v", i, err)
		}
		if got != want {
			t.Fatalf("case %d: ResolveKey = %s, server key = %s", i, got, want)
		}
	}

	// Every spelling of the default options shares the default key.
	base, err := ResolveKey(smallSrc, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, ro := range defaults {
		if got, _ := ResolveKey(smallSrc, ro); got != base {
			t.Fatalf("spelling %d (%+v) has its own key; want the default options' key", i, ro)
		}
	}

	// Invalid options fail identically on both paths.
	bad := RequestOptions{Algorithm: "turbo"}
	if _, _, err := resolve(bad); err == nil {
		t.Fatal("server resolve accepted a bad algorithm")
	}
	if _, err := ResolveKey(smallSrc, bad); err == nil {
		t.Fatal("ResolveKey accepted a bad algorithm")
	}
}
