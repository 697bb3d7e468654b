// Command forumsim boots the five simulated report forums and every
// intelligence service for a synthetic world, prints their addresses and
// credentials, and serves until interrupted — a standing target for
// developing collectors or demos.
//
// Usage:
//
//	forumsim [-seed N] [-messages N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"github.com/smishkit/smishkit"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("forumsim: ")

	seed := flag.Int64("seed", 1, "world generation seed")
	messages := flag.Int("messages", 2000, "synthetic corpus size")
	flag.Parse()

	world := smishkit.GenerateWorld(smishkit.WorldConfig{Seed: *seed, Messages: *messages})
	sim, err := smishkit.StartSimulation(world)
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()

	fmt.Println("forums:")
	fmt.Printf("  twitter      %s  (bearer: %s)\n", sim.TwitterURL, sim.TwitterBearer)
	fmt.Printf("  reddit       %s\n", sim.RedditURL)
	fmt.Printf("  smishtank    %s\n", sim.SmishtankURL)
	fmt.Printf("  smishing.eu  %s\n", sim.SmishingEUURL)
	fmt.Printf("  pastebin     %s\n", sim.PastebinURL)
	fmt.Println("services:")
	ep := sim.Endpoints
	fmt.Printf("  hlr          %s  (key: %s)\n", ep.HLR.URL, ep.HLR.Key)
	fmt.Printf("  whois        %s  (key: %s)\n", ep.Whois.URL, ep.Whois.Key)
	fmt.Printf("  ctlog        %s\n", ep.CTLog.URL)
	fmt.Printf("  dnsdb        %s  (key: %s)\n", ep.DNSDB.URL, ep.DNSDB.Key)
	fmt.Printf("  avscan       %s  (key: %s)\n", ep.AVScan.URL, ep.AVScan.Key)
	fmt.Printf("  shortener    %s\n", ep.Shortener.URL)
	fmt.Printf("  sites        %s\n", sim.SitesURL)
	fmt.Printf("telemetry:\n")
	fmt.Printf("  snapshot     %s/debug/telemetry\n", sim.DebugURL)
	fmt.Println("\nserving; ctrl-c to stop")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nshutting down")
}
