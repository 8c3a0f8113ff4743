package lint

import "testing"

// TestOnepathFlagsTwins: the context-less twin is the finding, for plain
// functions and for methods of one receiver type.
func TestOnepathFlagsTwins(t *testing.T) {
	runFixture(t, Onepath, "example.com/pkg", map[string]string{
		"pkg.go": `package pkg

import "context"

func Ping(addr string) error { // want "exported Ping is declared beside PingContext"
	return PingContext(context.Background(), addr)
}

func PingContext(ctx context.Context, addr string) error { return ctx.Err() }

type Client struct{}

func (c *Client) Run() error { // want "exported Run is declared beside RunContext"
	return c.RunContext(context.Background())
}

func (c *Client) RunContext(ctx context.Context) error { return ctx.Err() }
`,
	})
}

// TestOnepathCleanCode: a context form on its own, an unexported twin and a
// twin on a different receiver type are all fine.
func TestOnepathCleanCode(t *testing.T) {
	runFixture(t, Onepath, "example.com/pkg", map[string]string{
		"pkg.go": `package pkg

import "context"

func TestContext(ctx context.Context) error { return ctx.Err() }

func dial() error { return DialContext(context.Background()) }

func DialContext(ctx context.Context) error { return ctx.Err() }

type A struct{}
type B struct{}

func (A) Run() error                           { return nil }
func (B) RunContext(ctx context.Context) error { return ctx.Err() }
`,
	})
}

// TestOnepathAllowed: the directive documents a pair that must stay.
func TestOnepathAllowed(t *testing.T) {
	runFixture(t, Onepath, "example.com/pkg", map[string]string{
		"pkg.go": `package pkg

import "context"

//lint:allow onepath net.Dialer-shaped API kept for drop-in compatibility
func Dial() error { return DialContext(context.Background()) }

func DialContext(ctx context.Context) error { return ctx.Err() }
`,
	})
}
