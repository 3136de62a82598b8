package repro.core

import repro.SparkSpec
import repro.baselines.BruteForce
import repro.data.GraphGen

class EssentialVerticesSpec extends SparkSpec {

  private def propagateFull(g: LocalGraph, source: Int, excluded: Int, k: Int): EvIndex = {
    val noDist = Array.fill(g.n)(0) // pruning disabled, distances unused
    EssentialVertices.propagate(g, source, excluded, k, noDist, pruning = false)
  }

  // --- Figure 5 of the paper, verbatim ---

  {
    import PaperGraph._
    val k   = 7
    lazy val evF = propagateFull(graph, s, t, k)
    lazy val evB = propagateFull(graph.reverse, t, s, k)

    for (l <- 1 to 6; v <- Seq(a, b, c, h, i, j)) {
      test(s"Figure 5(a): EV_$l(s, ${names(v)})") {
        val expected = evForward(l).get(v)
        val got      = Option(evF.at(l, v)).map(_.toSet)
        assert(got == expected, s"l=$l v=${names(v)}")
      }
      test(s"Figure 5(b): EV_$l(${names(v)}, t)") {
        val expected = evBackward(l).get(v)
        val got      = Option(evB.at(l, v)).map(_.toSet)
        assert(got == expected, s"l=$l v=${names(v)}")
      }
    }

    test("Example 3.2: EV_2(s,b) and EV_3(s,b)") {
      assert(evF.at(2, b).toSet == Set(s, c, b))
      assert(evF.at(3, b).toSet == Set(s, b))
    }

    test("source keeps EV_l = {source} at every layer") {
      for (l <- 0 until k) assert(evF.at(l, s).toSeq == Seq(s))
      for (l <- 0 until k) assert(evB.at(l, t).toSeq == Seq(t))
    }

    test("excluded endpoint never receives an EV set") {
      for (l <- 0 until k) assert(evF.at(l, t) == null)
      for (l <- 0 until k) assert(evB.at(l, s) == null)
    }
  }

  // --- Theorem 3.5 (EV via walks == EV via simple paths) against brute force ---

  for (seed <- 0 until 18) {
    test(s"propagation equals the brute-force definition (seed=$seed)") {
      val n = 10 + seed % 5
      val g = GraphGen.uniform(n, n * 2 + seed, seed * 13 + 1)
      val s = seed % n
      val t = (seed * 3 + 1) % n
      if (s != t) {
        val k  = 3 + seed % 4
        val ev = propagateFull(g, s, t, k)
        for (l <- 1 until k; u <- 0 until n if u != t) {
          val expected = BruteForce.essentialVertices(g, s, u, l, t)
          val got      = Option(ev.at(l, u)).map(_.toSet)
          assert(got == expected, s"l=$l u=$u")
        }
      }
    }
  }

  // --- monotonicity properties the labeling relies on ---

  for (seed <- 0 until 8) {
    test(s"EV sets shrink and existence is monotone in l (seed=$seed)") {
      val g  = GraphGen.powerLaw(25, 70, 0.9, seed)
      val s  = seed % g.n; val t = (seed + 11) % g.n
      if (s != t) {
        val ev = propagateFull(g, s, t, 7)
        for (l <- 1 until 7; u <- 0 until g.n) {
          val prev = ev.at(l - 1, u); val cur = ev.at(l, u)
          if (prev != null) {
            assert(cur != null, s"existence lost at l=$l u=$u")
            assert(cur.toSet.subsetOf(prev.toSet), s"EV grew at l=$l u=$u")
          }
        }
      }
    }
  }

  // --- forward-looking pruning never changes the labeling outcome ---

  for (seed <- 0 until 12) {
    test(s"pruned and unpruned propagation label edges identically (seed=$seed)") {
      val n = 14 + seed
      val g = GraphGen.uniform(n, 3 * n, seed * 7 + 5)
      val s = seed % n; val t = (seed * 5 + 2) % n
      if (s != t) {
        val k     = 4 + seed % 4
        val dists = Bfs.distances(g, s, t, k, Bfs.SearchMode.Single)
        val fullF = propagateFull(g, s, t, k)
        val fullB = propagateFull(g.reverse, t, s, k)
        val prF   = EssentialVertices.propagate(g, s, t, k, dists.fromAll, pruning = true)
        val prB   = EssentialVertices.propagate(g.reverse, t, s, k, dists.toAll, pruning = true)
        val ubFull = EdgeLabeling.upperBound(g, s, t, k, dists, fullF, fullB)
        val ubPr   = EdgeLabeling.upperBound(g, s, t, k, dists, prF, prB)
        assert(ubFull.edges.toSeq == ubPr.edges.toSeq, "upper-bound edge sets differ")
        assert(ubFull.labels.toSeq == ubPr.labels.toSeq, "labels differ")
      }
    }
  }

  // --- stopping at minimal sets and unboxed frontiers change no set ---

  private val equivalenceGraphs = Seq(
    "uniform"         -> GraphGen.uniform(60, 180, 3),
    "power-law"       -> GraphGen.powerLaw(200, 800, alpha = 0.9, seed = 5),
    "dense uniform"   -> GraphGen.uniform(80, 80 * 16, 7),
    "dense power-law" -> GraphGen.powerLaw(300, 300 * 18, alpha = 0.9, seed = 9),
  )

  /** Same null pattern and the same sets at every (l, v). */
  private def assertSameIndex(got: EvIndex, ref: EvIndex, what: String): Unit =
    for (l <- ref.layers.indices; v <- ref.layers(l).indices) {
      val a = got.at(l, v); val b = ref.at(l, v)
      assert((a == null) == (b == null), s"$what: null pattern differs at l=$l v=$v")
      if (b != null) assert(a.sameElements(b), s"$what: EV_$l($v) ${a.toSeq} != ${b.toSeq}")
    }

  for ((gName, g) <- equivalenceGraphs; k <- 3 to 8; pruning <- Seq(true, false)) {
    test(s"propagation equals the plain reference ($gName, k=$k, pruning=$pruning)") {
      for ((s, t) <- GraphGen.queries(g, k, 4, seed = k * 11L) :+ ((0, g.n - 1))) {
        val d = Bfs.distances(g, s, t, k, Bfs.SearchMode.Adaptive)
        assertSameIndex(EssentialVertices.propagate(g, s, t, k, d.fromAll, pruning),
          PlainPropagation.propagate(g, s, t, k, d.fromAll, pruning), s"forward ($s,$t)")
        assertSameIndex(EssentialVertices.propagate(g.reverse, t, s, k, d.toAll, pruning),
          PlainPropagation.propagate(g.reverse, t, s, k, d.toAll, pruning), s"backward ($s,$t)")
      }
    }
  }

  test("propagation on a dense corridor allocates only the layers and the sets (wn, k=6)") {
    val g  = GraphGen.dataset("wn").build() // 4,000 vertices, d_avg 18, power-law
    val k  = 6
    val corridors = GraphGen.queries(g, k, 20, seed = 3).map { case (s, t) =>
      val cor = Corridor.of(g, s, t, k, Bfs.SearchMode.Adaptive)
      (cor, cor.local(s), cor.local(t))
    }
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    def perCall(prop: (LocalGraph, Int, Int, Array[Int]) => EvIndex): Long = {
      val a0 = mx.getCurrentThreadAllocatedBytes
      for ((cor, s, t) <- corridors) {
        prop(cor.graph, s, t, cor.dists.fromAll); prop(cor.graph.reverse, t, s, cor.dists.toAll)
      }
      (mx.getCurrentThreadAllocatedBytes - a0) / (2 * corridors.length)
    }
    val current = (g: LocalGraph, s: Int, t: Int, d: Array[Int]) => EssentialVertices.propagate(g, s, t, k, d, pruning = true)
    val plain   = (g: LocalGraph, s: Int, t: Int, d: Array[Int]) => PlainPropagation.propagate(g, s, t, k, d, pruning = true)
    perCall(current); perCall(plain)
    val got = perCall(current); val ref = perCall(plain)
    info(s"propagate allocates ${got / 1024} KB per call; the plain reference ${ref / 1024} KB")
    // Measured at 365 KB per call, against 678 KB for the reference, whose
    // frontier and reached lists box every Int.
    assert(got < 448 * 1024, s"$got bytes per call; plain reference $ref")
  }

  test("a past deadline aborts propagation with DeadlineExceeded") {
    import PaperGraph._
    val dists = Bfs.distances(graph, s, t, 7, Bfs.SearchMode.Adaptive)
    intercept[DeadlineExceeded] {
      EssentialVertices.propagate(graph, s, t, 7, dists.fromAll, pruning = true, deadline = System.nanoTime() - 1)
    }
  }
}
