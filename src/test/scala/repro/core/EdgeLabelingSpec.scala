package repro.core

import repro.SparkSpec
import repro.baselines.BruteForce
import repro.data.GraphGen

class EdgeLabelingSpec extends SparkSpec {

  private def labelAll(g: LocalGraph, s: Int, t: Int, k: Int): UpperBoundGraph = {
    val dists = Bfs.distances(g, s, t, k, Bfs.SearchMode.Adaptive)
    val evF   = EssentialVertices.propagate(g, s, t, k, dists.fromAll, pruning = true)
    val evB   = EssentialVertices.propagate(g.reverse, t, s, k, dists.toAll, pruning = true)
    EdgeLabeling.upperBound(g, s, t, k, dists, evF, evB)
  }

  // --- paper worked examples, k = 7 ---

  {
    import PaperGraph._
    val k = 7
    lazy val ub = labelAll(graph, s, t, k)
    lazy val labelOf: Map[(Int, Int), Byte] =
      ub.edges.zip(ub.labels).map { case (e, l) => ((LocalGraph.src(e), LocalGraph.dst(e)), l) }.toMap

    test("Example 4.2: e(i,j) is in the upper-bound graph") {
      assert(labelOf.contains((i, j)))
    }
    test("Example 4.2: e(b,j) is a failing edge") {
      assert(!labelOf.contains((b, j)))
    }
    test("Example 4.5: e(s,a) is definite") {
      assert(labelOf((s, a)) == EdgeLabel.Definite)
    }
    test("Example 4.7: e(a,i) is definite") {
      assert(labelOf((a, i)) == EdgeLabel.Definite)
    }
    test("Lemma 3.3 counterexample: e(b,a) survives as undetermined") {
      assert(labelOf((b, a)) == EdgeLabel.Undetermined)
    }
    test("first/last-hop edges of SPGu are definite (Lemma 4.4)") {
      for (((u, v), l) <- labelOf if u == s || v == t) assert(l == EdgeLabel.Definite, s"($u,$v)")
    }

    test("Example 5.5: departures/arrivals of the paper graph") {
      val bd = Boundary.compute(ub)
      assert(bd.departures.toSet == Set(b, c, h, i))
      assert(bd.arrivals.toSet == Set(a, c, h))
      assert(bd.inD(c).toSet == Set(a))
      assert(bd.outA(c).toSet == Set(b))
      assert(bd.inD(i).toSet == Set(a))
      assert(bd.outA(h).toSet == Set(b))
    }
  }

  // --- structural properties vs brute force on random graphs ---

  for (seed <- 0 until 15; k <- Seq(3, 4, 5, 6, 7)) {
    test(s"SPGu contains SPG; definite edges are in SPG (seed=$seed k=$k)") {
      val n = 12 + seed % 4
      val g = GraphGen.uniform(n, (2.2 * n).toInt + seed, seed * 31 + k)
      val s = seed % n; val t = (seed * 7 + 1) % n
      if (s != t) {
        val ub    = labelAll(g, s, t, k)
        val exact = BruteForce.spg(g, s, t, k)
        val ubSet = ub.edges.toSet
        assert(exact.subsetOf(ubSet), s"upper bound lost ${exact.diff(ubSet).size} true edges")
        ub.definiteEdges.foreach(e => assert(exact.contains(e),
          s"definite edge (${LocalGraph.src(e)},${LocalGraph.dst(e)}) not in SPG"))
      }
    }
  }

  for (seed <- 0 until 10; k <- Seq(1, 2, 3, 4)) {
    test(s"Theorem 4.8: SPGu equals SPG exactly for k<=4 (seed=$seed k=$k)") {
      val n = 10 + seed % 6
      val g = GraphGen.uniform(n, 3 * n, seed * 17 + k)
      val s = seed % n; val t = (seed + 5) % n
      if (s != t) {
        val ub    = labelAll(g, s, t, k)
        val exact = BruteForce.spg(g, s, t, k)
        assert(ub.edges.toSet == exact)
        assert(ub.labels.forall(_ == EdgeLabel.Definite), "k<=4 admits no undetermined edges")
      }
    }
  }

  for (seed <- 0 until 8) {
    test(s"Theorem 4.9: first/last two hops of any simple path are definite (seed=$seed)") {
      val n = 12
      val g = GraphGen.uniform(n, 30 + seed, seed * 3 + 11)
      val s = seed % n; val t = (seed + 7) % n
      val k = 6
      if (s != t) {
        val ub = labelAll(g, s, t, k)
        val lab = ub.edges.zip(ub.labels).map { case (e, l) => (e, l) }.toMap
        for (p <- BruteForce.allSimplePaths(g, s, t, k)) {
          val es = p.sliding(2).map(q => LocalGraph.enc(q.head, q(1))).toSeq
          for (e <- Seq(es.head, es.last) ++ es.slice(1, 2) ++ es.dropRight(1).takeRight(1))
            assert(lab(e) == EdgeLabel.Definite,
              s"edge (${LocalGraph.src(e)},${LocalGraph.dst(e)}) of path $p")
        }
      }
    }
  }

  test("direct edge e(s,t) is definite for any k") {
    val g = LocalGraph.fromEdges(3, Seq((0, 2), (0, 1), (1, 2)))
    for (k <- 1 to 5) {
      val ub = labelAll(g, 0, 2, k)
      val m  = ub.edges.zip(ub.labels).toMap
      assert(m(LocalGraph.enc(0, 2)) == EdgeLabel.Definite, s"k=$k")
    }
  }

  test("k=1: only the direct edge survives") {
    val g  = LocalGraph.fromEdges(3, Seq((0, 2), (0, 1), (1, 2)))
    val ub = labelAll(g, 0, 2, 1)
    assert(ub.edges.toSeq == Seq(LocalGraph.enc(0, 2)))
  }

  test("edges into s and out of t are always failing") {
    val g  = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3), (3, 0), (2, 0), (3, 1)))
    val ub = labelAll(g, 0, 2, 4)
    val set = ub.edges.toSet
    assert(!set.contains(LocalGraph.enc(2, 3)), "edge out of t kept")
    assert(!set.contains(LocalGraph.enc(3, 0)), "edge into s kept")
    assert(!set.contains(LocalGraph.enc(2, 0)), "edge t->s kept")
  }

  /** Algorithm 2 over the window edges of `g`, one [[EdgeLabeling.labelEdge]] per edge. */
  private def labelWindow(g: LocalGraph, s: Int, t: Int, k: Int, d: Bfs.Dists,
                          evF: EvIndex, evB: EvIndex): Seq[(Long, Byte)] = {
    g.encodedEdges.toSeq
      .filter(e => Bfs.inWindow(d.fromS(LocalGraph.src(e)), d.toT(LocalGraph.dst(e)), k))
      .map { e =>
        val (u, v) = (LocalGraph.src(e), LocalGraph.dst(e))
        (e, EdgeLabeling.labelEdge(k, s, t, u, v, evF, evB))
      }
      .filter(_._2 != EdgeLabel.Failing)
  }

  for ((gName, g) <- Seq("uniform" -> GraphGen.uniform(120, 330, 7),
                         "power-law" -> GraphGen.powerLaw(300, 1500, alpha = 0.9, seed = 11));
       k <- 2 to 8) {
    test(s"upperBound labels exactly the window edges, on the whole graph and the corridor ($gName, k=$k)") {
      for ((s, t) <- GraphGen.queries(g, k, 5, seed = k * 13L)) {
        val d   = Bfs.distances(g, s, t, k, Bfs.SearchMode.Single)
        val cor = Corridor.of(g, s, t, k, Bfs.SearchMode.Single)
        for ((h, hs, ht, hd) <- Seq((g, s, t, d), (cor.graph, cor.local(s), cor.local(t), cor.dists))) {
          val evF = EssentialVertices.propagate(h, hs, ht, k, hd.fromAll, pruning = false)
          val evB = EssentialVertices.propagate(h.reverse, ht, hs, k, hd.toAll, pruning = false)
          val ub  = EdgeLabeling.upperBound(h, hs, ht, k, hd, evF, evB)
          val q   = s"($s,$t) on ${h.n} vertices"
          assert(ub.edges.toSeq.zip(ub.labels.toSeq) == labelWindow(h, hs, ht, k, hd, evF, evB), q)
          assert(ub.numDefinite == ub.labels.count(_ == EdgeLabel.Definite), q)
        }
      }
    }
  }

  test("an UpperBoundGraph whose edges are not strictly ascending is rejected") {
    import LocalGraph.enc
    val labels = Array(EdgeLabel.Definite, EdgeLabel.Definite)
    for (edges <- Seq(Array(enc(0, 2), enc(0, 1)), Array(enc(1, 2), enc(0, 2)), Array(enc(0, 1), enc(0, 1))))
      intercept[IllegalArgumentException](new UpperBoundGraph(3, 3, 0, 2, edges, labels))
    assert(new UpperBoundGraph(3, 3, 0, 2, Array(enc(0, 1), enc(1, 2)), labels).numEdges == 2)
  }

  /** Definitions 5.1–5.4 read off a hash set of SPGu edges: v's valid
    * in-neighbours x (e(s,x), e(x,v) ∈ SPGu; x, v, s, t distinct) and valid
    * out-neighbours y (e(v,y), e(y,t) ∈ SPGu; v, y, s, t distinct), ascending.
    */
  private def bruteBoundary(ub: UpperBoundGraph): (Array[IndexedSeq[Int]], Array[IndexedSeq[Int]]) = {
    val set = new java.util.HashSet[java.lang.Long]()
    ub.edges.foreach(e => set.add(e))
    def has(u: Int, v: Int) = set.contains(LocalGraph.enc(u, v))
    val (s, t) = (ub.s, ub.t)
    def distinct(a: Int, b: Int) = Set(a, b, s, t).size == 4
    val validIn  = Array.tabulate(ub.n)(v => (0 until ub.n).filter(x => distinct(x, v) && has(s, x) && has(x, v)))
    val validOut = Array.tabulate(ub.n)(v => (0 until ub.n).filter(y => distinct(v, y) && has(v, y) && has(y, t)))
    (validIn, validOut)
  }

  for ((kind, gen) <- Seq[(String, Int => LocalGraph)](
         "uniform"   -> (seed => GraphGen.uniform(24, 360, seed)),
         "power-law" -> (seed => GraphGen.powerLaw(40, 200, alpha = 0.9, seed)));
       k <- 5 to 8) {
    test(s"Boundary equals a brute-force reading of Definitions 5.1-5.4 ($kind, k=$k)") {
      val cap = math.max(1, k - 2)
      var capped = 0
      for (seed <- 0 until 4; g = gen(seed * 19 + k); (s, t) <- GraphGen.queries(g, k, 3, seed)) {
        val ub = labelAll(g, s, t, k)
        val bd = Boundary.compute(ub)
        val (validIn, validOut) = bruteBoundary(ub)
        for (v <- 0 until ub.n) {
          val ctx = s"seed=$seed ($s,$t) v=$v"
          assert(bd.isDeparture(v) == validIn(v).nonEmpty, ctx)
          assert(bd.isArrival(v) == validOut(v).nonEmpty, ctx)
          for ((got, valid) <- Seq(bd.inD(v) -> validIn(v), bd.outA(v) -> validOut(v))) {
            if (valid.isEmpty) assert(got == null, ctx)
            else {
              assert((1 until got.length).forall(i => got(i - 1) < got(i)), s"$ctx not ascending")
              assert(got.toSeq == valid.take(cap), ctx)
              if (valid.length > cap) capped += 1
            }
          }
        }
      }
      assert(capped > 0, "no In_D/Out_A list reached the Theorem 5.8 cap")
    }
  }

  test("In_D/Out_A are capped at k-2 entries (Theorem 5.8)") {
    // star into departure vertex 1: s->x_i->1 for many x_i, then 1->2->t
    val k = 6
    val spokes = (3 until 12)
    val edges = spokes.flatMap(x => Seq((0, x), (x, 1))) ++ Seq((1, 2), (2, 13), (12, 13))
    val g = LocalGraph.fromEdges(14, edges)
    val ub = labelAll(g, 0, 13, k)
    val bd = Boundary.compute(ub)
    assert(bd.isDeparture(1))
    assert(bd.inD(1).length <= k - 2)
  }

  test("a past deadline aborts labeling with DeadlineExceeded") {
    import PaperGraph._
    val dists = Bfs.distances(graph, s, t, 7, Bfs.SearchMode.Adaptive)
    val evF   = EssentialVertices.propagate(graph, s, t, 7, dists.fromAll, pruning = true)
    val evB   = EssentialVertices.propagate(graph.reverse, t, s, 7, dists.toAll, pruning = true)
    intercept[DeadlineExceeded] {
      EdgeLabeling.upperBound(graph, s, t, 7, dists, evF, evB, deadline = System.nanoTime() - 1)
    }
  }
}
