package repro.core

import repro.SparkSpec
import repro.data.GraphGen

/** Property tests for the three distance strategies of §3.3: for every
  * vertex y with Δ(s,y)+Δ(y,t) ≤ k (the only vertices EVE consults), all
  * modes must return the exact full-BFS distances.
  */
class BfsSpec extends SparkSpec {

  /** Reference k-bounded distances: a plain queue BFS, independent of [[Bfs]]. */
  private def queueBfs(n: Int, adj: Int => Array[Int], root: Int, k: Int): Array[Int] = {
    val dist  = Array.fill(n)(Bfs.Inf)
    val queue = scala.collection.mutable.Queue(root)
    dist(root) = 0
    while (queue.nonEmpty) {
      val x = queue.dequeue()
      if (dist(x) < k)
        for (y <- adj(x) if dist(y) == Bfs.Inf) { dist(y) = dist(x) + 1; queue.enqueue(y) }
    }
    dist
  }

  private def fullDists(g: LocalGraph, s: Int, t: Int, k: Int): Bfs.Dists =
    Bfs.Dists(queueBfs(g.n, g.outAdj, s, k), queueBfs(g.n, g.inAdj, t, k))

  test("bounded BFS distances on the paper graph") {
    import PaperGraph._
    val d = Bfs.bounded(graph.outOff, graph.outDst, s, 7)
    assert(d(s) == 0 && d(a) == 1 && d(c) == 1 && d(b) == 2 && d(h) == 2 &&
      d(i) == 2 && d(j) == 3 && d(t) == 2)
    val db = Bfs.bounded(graph.inOff, graph.inSrc, t, 7)
    assert(db(t) == 0 && db(b) == 1 && db(c) == 1 && db(a) == 2 && db(h) == 2 &&
      db(j) == 3 && db(i) == 4 && db(s) == 2)
  }

  test("bounded BFS respects the hop bound") {
    import PaperGraph._
    val d = Bfs.bounded(graph.inOff, graph.inSrc, t, 3)
    assert(d(i) == Bfs.Inf) // Δ(i,t)=4 > 3
    assert(d(j) == 3)
  }

  for (seed <- 0 until 5) {
    test(s"multi-root distances are the minimum over the roots (seed=$seed)") {
      val g     = GraphGen.powerLaw(40, 120, alpha = 0.9, seed)
      val roots = Array(seed % g.n, (seed + 11) % g.n, (seed + 23) % g.n)
      val k     = 3 + seed % 3
      // Edge-id CSR over g's out-edges; slot j holds edge id m-1-j, so the
      // search must follow ids rather than slots.
      val flat  = g.outDst; val m = flat.length
      val off   = g.outOff
      val end   = Array.tabulate(m)(e => flat(m - 1 - e))
      val d     = Bfs.nearest(off, Array.tabulate(m)(m - 1 - _), end, g.n, roots, k)
      for (y <- 0 until g.n)
        assert(d(y) == roots.map(r => queueBfs(g.n, g.outAdj, r, k)(y)).min, s"y=$y")
    }
  }

  test("single-mode distances equal full BFS") {
    val g = GraphGen.uniform(30, 80, seed = 5)
    val d = Bfs.distances(g, 0, 1, 5, Bfs.SearchMode.Single)
    val f = fullDists(g, 0, 1, 5)
    assert(d.toAll.toSeq == f.toAll.toSeq && d.fromAll.toSeq == f.fromAll.toSeq)
  }

  for (seed <- 0 until 20; k <- Seq(2, 4, 5, 7)) {
    test(s"bidir/adaptive match full BFS on relevant vertices (seed=$seed k=$k)") {
      val n = 16 + seed
      val g = GraphGen.uniform(n, 2 * n + seed * 3, seed)
      val s = seed % n
      val t = (seed * 7 + 3) % n
      if (s != t) {
        val full = fullDists(g, s, t, k)
        for (mode <- Seq(Bfs.SearchMode.BiDir, Bfs.SearchMode.Adaptive)) {
          val d = Bfs.distances(g, s, t, k, mode)
          for (y <- 0 until n) {
            if (full.fromS(y) + full.toT(y) <= k) {
              assert(d.fromS(y) == full.fromS(y), s"mode=$mode fromS($y)")
              assert(d.toT(y) == full.toT(y), s"mode=$mode toT($y)")
            } else {
              // Never *under*-estimate: a too-small distance would admit
              // edges the exact computation rejects.
              assert(d.fromS(y) >= full.fromS(y), s"mode=$mode fromS($y) underestimated")
              assert(d.toT(y) >= full.toT(y), s"mode=$mode toT($y) underestimated")
            }
          }
        }
      }
    }
  }

  for (seed <- 0 until 10) {
    test(s"bidir/adaptive on power-law graphs (seed=$seed)") {
      val g = GraphGen.powerLaw(40, 120, alpha = 0.9, seed)
      val s = seed % g.n
      val t = (seed + 17) % g.n
      val k = 6
      val full = fullDists(g, s, t, k)
      for (mode <- Seq(Bfs.SearchMode.BiDir, Bfs.SearchMode.Adaptive)) {
        val d = Bfs.distances(g, s, t, k, mode)
        for (y <- 0 until g.n if full.fromS(y) + full.toT(y) <= k) {
          assert(d.fromS(y) == full.fromS(y) && d.toT(y) == full.toT(y), s"mode=$mode y=$y")
        }
      }
    }
  }

  test("disconnected target: all modes agree on unreachability") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (2, 3))) // 0 cannot reach 3
    for (mode <- Seq(Bfs.SearchMode.Single, Bfs.SearchMode.BiDir, Bfs.SearchMode.Adaptive)) {
      val d = Bfs.distances(g, 0, 3, 4, mode)
      assert(d.fromS(3) == Bfs.Inf)
    }
  }
}
