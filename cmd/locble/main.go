// Command locble simulates a LocBLE measurement end to end: it places a
// beacon, walks a virtual observer through an L-shaped measurement,
// locates the beacon with the full pipeline, and (optionally) navigates
// to it — printing what the phone app's UI would show.
//
// Usage:
//
//	locble [flags]
//
//	-x, -y        true beacon position in metres (default 6, 3)
//	-env          propagation class: los | plos | nlos (default los)
//	-phone        iphone5s | iphone6s | nexus5x | nexus6p (default iphone6s)
//	-beacon       estimote | radbeacon | ios (default estimote)
//	-seed         simulation seed
//	-loss         regression loss: squared | huber | tukey (default squared)
//	-navigate     after measuring, walk to the estimate
//	-cluster      add 3 co-located neighbour beacons and calibrate
//	-faults       inject impairments before processing (see -faults help)
//	-metrics      print the pipeline metrics snapshot as JSON after the run
//	-pprof        serve net/http/pprof and /metrics on this address
//	-v            verbose diagnostics
package main

import (
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"locble"
	"locble/internal/faults"
)

func main() {
	var (
		bx       = flag.Float64("x", 6, "beacon x (m)")
		by       = flag.Float64("y", 3, "beacon y (m)")
		envName  = flag.String("env", "los", "environment: los|plos|nlos")
		phone    = flag.String("phone", "iphone6s", "phone profile")
		beacon   = flag.String("beacon", "estimote", "beacon hardware")
		seed     = flag.Int64("seed", 1, "simulation seed")
		lossF    = flag.String("loss", "squared", "regression loss: squared|huber|tukey")
		replay   = flag.String("replay", "", "analyze a saved trace file (see locble-trace -save)")
		faultsF  = flag.String("faults", "", "comma-separated fault injectors (\"-faults help\" lists them)")
		navigate = flag.Bool("navigate", false, "navigate to the estimate after measuring")
		trackF   = flag.Bool("track", false, "continuous sliding-window tracking")
		fleetF   = flag.Bool("fleet", false, "fleet serving demo: batched multi-beacon ingest over the loopback push op")
		fleetN   = flag.Int("fleet-beacons", 12, "beacons to track in the fleet demo")
		storeF   = flag.String("store", "", "durable checkpoint store directory for -fleet/-router/-serve (survives restarts)")
		routerF  = flag.String("router", "", "multi-node routing demo: a node count (loopback cluster, e.g. 3) or comma-separated fleet server addresses")
		drainF   = flag.String("drain", "", "with -router addresses: drain this node mid-run (loopback mode picks one automatically)")
		serveF   = flag.Int("serve", -1, "run a standalone fleet server on this port (0 = ephemeral) until interrupted")
		clusterF = flag.Bool("cluster", false, "place neighbour beacons and calibrate")
		metricsF = flag.Bool("metrics", false, "print the pipeline metrics snapshot as JSON after the run")
		pprofF   = flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. 127.0.0.1:6060)")
		verbose  = flag.Bool("v", false, "verbose diagnostics")
	)
	flag.Parse()

	startDebugServer(*pprofF)

	if *faultsF == "help" {
		printFaultsHelp()
		return
	}
	if *serveF >= 0 {
		if err := runServe(*serveF, *storeF); err != nil {
			fmt.Fprintln(os.Stderr, "locble:", err)
			os.Exit(1)
		}
		return
	}
	if *routerF != "" {
		if err := runRouter(*routerF, *fleetN, *storeF, *drainF, *metricsF, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, "locble:", err)
			os.Exit(1)
		}
		return
	}
	if *fleetF {
		if err := runFleet(*fleetN, *storeF, *metricsF, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, "locble:", err)
			os.Exit(1)
		}
		return
	}
	if *replay != "" {
		if err := runReplay(*replay, *metricsF, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, "locble:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*bx, *by, *envName, *phone, *beacon, *seed, *lossF, *faultsF, *navigate, *trackF, *clusterF, *metricsF, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "locble:", err)
		os.Exit(1)
	}
}

// startDebugServer serves net/http/pprof (on the default mux, via the
// blank import) plus the process-wide metrics snapshot at /metrics.
func startDebugServer(addr string) {
	if addr == "" {
		return
	}
	http.Handle("/metrics", locble.MetricsHandler())
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "locble: pprof server:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/ and /metrics\n", addr)
}

// dumpMetrics prints the engine-scoped snapshot merged with the
// process-wide one (sigproc / estimate / netproto instrumentation).
func dumpMetrics(sys *locble.System) {
	fmt.Println("\nmetrics:")
	sys.Metrics().Merge("", locble.ProcessMetrics()).WriteJSON(os.Stdout)
}

// cannedFaults maps the -faults spellings to preconfigured injectors —
// enough to demo every degradation path from the command line.
var cannedFaults = map[string]struct {
	fault faults.Fault
	desc  string
}{
	"dropout":  {faults.DropoutBurst{Start: 3, Duration: 2}, "2 s RSS dropout burst at t=3 s"},
	"stall":    {faults.ScannerStall{Start: 2, Duration: 1.5}, "BLE scanner stalled 1.5 s at t=2 s"},
	"drop":     {faults.RandomDrop{Prob: 0.3}, "30% i.i.d. advertising-packet loss"},
	"nan":      {faults.NonFiniteRSSI{Prob: 0.2}, "20% NaN/Inf RSSI readings"},
	"clip":     {faults.ClipRSSI{Floor: -72, Ceil: -58}, "receiver clipping to [-72, -58] dBm"},
	"dupes":    {faults.DuplicateReports{Prob: 0.3}, "30% duplicated scan reports"},
	"reorder":  {faults.ReorderReports{Window: 6}, "scan reports shuffled in windows of 6"},
	"skew":     {faults.ClockSkew{Offset: 4}, "BLE clock 4 s ahead of the IMU"},
	"jitter":   {faults.JitterTimestamps{Sigma: 0.05}, "50 ms Gaussian timestamp jitter"},
	"truncate": {faults.TruncateWindow{Keep: 2.5}, "measurement cut off after 2.5 s"},
	"imudrop":  {faults.IMUDropout{Start: 4, Duration: 2}, "2 s IMU dropout at t=4 s"},
	"imusat":   {faults.IMUSaturate{MaxAccel: 9}, "accelerometer railing at ±9 m/s²"},
	"corrupt":  {faults.CorruptPDU{BitProb: 0.01}, "1%/bit PDU corruption on the air"},
	"impulse":  {faults.ImpulseBurst{Start: 2, Duration: 4, Prob: 0.2, DeltaDB: 20}, "impulsive interference: 20% of readings +20 dB in t=[2,6) s"},
	"clone":    {faults.BeaconClone{OffsetDB: -25}, "adversarial clone advertising the target's identity at -25 dB"},
	"decay":    {faults.TxPowerDecay{Start: 1, RatePerS: 1.5}, "TX power decaying 1.5 dB/s from t=1 s (dying battery)"},
	"outliers": {faults.OutlierRun{Start: 3, Duration: 1.5, DeltaDB: 18}, "coordinated +18 dB outlier run in t=[3,4.5) s"},
}

func printFaultsHelp() {
	fmt.Println("fault injectors (-faults a,b,...):")
	for _, name := range []string{"dropout", "stall", "drop", "nan", "clip", "dupes",
		"reorder", "skew", "jitter", "truncate", "imudrop", "imusat", "corrupt",
		"impulse", "clone", "decay", "outliers"} {
		fmt.Printf("  %-9s %s\n", name, cannedFaults[name].desc)
	}
}

// parseFaults resolves a comma-separated -faults spec.
func parseFaults(spec string) ([]faults.Fault, error) {
	if spec == "" {
		return nil, nil
	}
	var fs []faults.Fault
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if name == "" {
			continue
		}
		c, ok := cannedFaults[name]
		if !ok {
			return nil, fmt.Errorf("unknown fault %q (try -faults help)", name)
		}
		fs = append(fs, c.fault)
	}
	return fs, nil
}

func run(bx, by float64, envName, phoneName, beaconName string, seed int64, lossName, faultSpec string, navigate, trackOn, clusterOn, metricsOn, verbose bool) error {
	envClass, err := parseEnv(envName)
	if err != nil {
		return err
	}
	loss, err := locble.ParseLoss(lossName)
	if err != nil {
		return err
	}
	injectors, err := parseFaults(faultSpec)
	if err != nil {
		return err
	}
	phone, err := parsePhone(phoneName)
	if err != nil {
		return err
	}
	tx, err := parseBeacon(beaconName)
	if err != nil {
		return err
	}

	beacons := []locble.BeaconSpec{{Name: "target", X: bx, Y: by, Tx: tx}}
	if clusterOn {
		beacons = append(beacons,
			locble.BeaconSpec{Name: "n1", X: bx + 0.3, Y: by, Tx: tx},
			locble.BeaconSpec{Name: "n2", X: bx, Y: by + 0.3, Tx: tx},
			locble.BeaconSpec{Name: "n3", X: bx + 0.3, Y: by + 0.3, Tx: tx},
		)
	}

	fmt.Printf("simulating measurement: beacon %q at (%.1f, %.1f) m, %s, %s, %s\n",
		"target", bx, by, envClass, phone.Name, tx.Name)
	fmt.Println("observer: L-shaped walk, 4 m + 4 m")

	sys, err := locble.New(locble.WithLoss(loss))
	if err != nil {
		return err
	}
	if metricsOn {
		defer dumpMetrics(sys)
	}
	plan := locble.LShapeWalk(0, 4, 4)
	if trackOn {
		// A patrol loop gives the tracker continuously fresh geometry.
		plan = locble.WalkPlan{Segments: []locble.WalkSegment{
			{Heading: 0, Distance: 6},
			{Heading: math.Pi / 2, Distance: 4},
			{Heading: math.Pi, Distance: 6},
			{Heading: -math.Pi / 2, Distance: 4},
		}}
	}
	trace, err := locble.Simulate(locble.Scenario{
		Beacons:      beacons,
		ObserverPlan: plan,
		Phone:        phone,
		EnvModel:     locble.StaticEnv(envClass),
		Seed:         seed,
	})
	if err != nil {
		return err
	}
	if len(injectors) > 0 {
		faults.Apply(trace, seed, injectors...)
		fmt.Printf("injected faults: %s\n", faults.Chain(injectors...).Name())
	}

	if trackOn {
		fixes, err := sys.TrackSmoothed(trace, "target", 8, 2, 0)
		if err != nil {
			return err
		}
		fmt.Println("\ncontinuous tracking (smoothed fixes):")
		for _, f := range fixes {
			fmt.Printf("  t=%5.1f s  (%5.2f, %5.2f) m  err %.2f m\n",
				f.T, f.Position.X, f.Position.Y, math.Hypot(f.Position.X-bx, f.Position.Y-by))
		}
		return nil
	}
	if verbose {
		obsCount := 0
		for _, o := range trace.Observations {
			obsCount += len(o)
		}
		fmt.Printf("trace: %.1f s, %d IMU samples, %d scan reports\n",
			trace.Duration, len(trace.IMU.Samples), obsCount)
	}

	var pos *locble.Position
	if clusterOn {
		p, cres, err := sys.LocateCalibrated(trace, "target")
		if err != nil {
			return err
		}
		pos = p
		fmt.Printf("cluster: %d members joined\n", cres.ClusterSize)
		if verbose {
			for _, m := range cres.Members {
				fmt.Printf("  %-8s matched=%-5v weight=%.2f\n", m.Name, m.Matched, m.Weight)
			}
		}
	} else {
		p, err := sys.Locate(trace, "target")
		if err != nil {
			if h := locble.HealthFromError(err); h.Status == locble.HealthRejected {
				fmt.Printf("\nmeasurement rejected: %s\n", h)
				return nil
			}
			return err
		}
		pos = p
	}

	fmt.Printf("\nestimate: (%.2f, %.2f) m  range %.2f m  confidence %.2f\n",
		pos.X, pos.Y, pos.Range, pos.Confidence)
	fmt.Printf("health: %s\n", pos.Health.String())
	fmt.Printf("environment: %s   path-loss exponent: %.2f\n", pos.Environment, pos.PathLossExponent)
	fmt.Printf("true error: %.2f m\n", math.Hypot(pos.X-bx, pos.Y-by))
	if pos.Ambiguous && pos.Mirror != nil {
		fmt.Printf("ambiguous: mirror candidate at (%.2f, %.2f)\n", pos.Mirror.X, pos.Mirror.Y)
	}

	if navigate {
		fmt.Println("\nnavigation:")
		nav := sys.Navigator(pos)
		// Walk in 0.7 m steps toward the advice until arrival.
		for step := 0; step < 40; step++ {
			adv := nav.Advise()
			if adv.Arrived {
				x, y := nav.Position()
				fmt.Printf("  arrived after %d steps at (%.2f, %.2f); true miss %.2f m\n",
					step, x, y, math.Hypot(x-bx, y-by))
				return nil
			}
			if verbose {
				fmt.Printf("  step %2d: %.2f m to go, bearing %.0f°\n",
					step, adv.Distance, adv.Bearing*180/math.Pi)
			}
			nav.Update(0.7, adv.Bearing)
		}
		fmt.Println("  gave up after 40 steps")
	}
	return nil
}

// runReplay analyzes every beacon of a saved trace.
func runReplay(path string, metricsOn, verbose bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := locble.LoadTrace(f)
	if err != nil {
		return err
	}
	fmt.Printf("replaying %s: %.1f s, %d beacons, phone %s\n",
		path, tr.Duration, len(tr.Observations), tr.Phone.Name)
	sys, err := locble.New()
	if err != nil {
		return err
	}
	if metricsOn {
		defer dumpMetrics(sys)
	}
	for _, spec := range tr.Beacons {
		pos, err := sys.Locate(tr, spec.Name)
		if err != nil {
			fmt.Printf("  %-12s no estimate: %v\n", spec.Name, err)
			continue
		}
		fmt.Printf("  %-12s est (%.2f, %.2f) m  range %.2f  conf %.2f  env %s  health %s\n",
			spec.Name, pos.X, pos.Y, pos.Range, pos.Confidence, pos.Environment, pos.Health.String())
		if verbose {
			fmt.Printf("               true (%.2f, %.2f), error %.2f m\n",
				spec.X, spec.Y, math.Hypot(pos.X-spec.X, pos.Y-spec.Y))
		}
	}
	return nil
}

func parseEnv(s string) (locble.Environment, error) {
	switch strings.ToLower(s) {
	case "los":
		return locble.LOS, nil
	case "plos", "p-los":
		return locble.PLOS, nil
	case "nlos":
		return locble.NLOS, nil
	}
	return 0, fmt.Errorf("unknown environment %q", s)
}

func parsePhone(s string) (locble.DeviceProfile, error) {
	switch strings.ToLower(s) {
	case "iphone5s":
		return locble.IPhone5s, nil
	case "iphone6s":
		return locble.IPhone6s, nil
	case "nexus5x":
		return locble.Nexus5x, nil
	case "nexus6p":
		return locble.Nexus6P, nil
	case "moto", "motonexus6":
		return locble.MotoNexus6, nil
	}
	return locble.DeviceProfile{}, fmt.Errorf("unknown phone %q", s)
}

func parseBeacon(s string) (locble.BeaconHardware, error) {
	switch strings.ToLower(s) {
	case "estimote":
		return locble.EstimoteBeacon, nil
	case "radbeacon":
		return locble.RadBeaconUSB, nil
	case "ios":
		return locble.IOSDeviceTx, nil
	}
	return locble.BeaconHardware{}, fmt.Errorf("unknown beacon %q", s)
}
