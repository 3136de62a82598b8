package repro.baselines

import repro.SparkSpec
import repro.core.{DeadlineExceeded, Eve, LocalGraph, PaperGraph}
import repro.data.GraphGen

class BaselinesSpec extends SparkSpec {

  private def bruteCount(g: LocalGraph, s: Int, t: Int, k: Int): Long =
    BruteForce.countSimplePaths(g, s, t, k)

  // --- enumeration counts vs brute force ---

  for (seed <- 0 until 12; k <- Seq(2, 4, 5, 7)) {
    test(s"BC-DFS count equals brute force (seed=$seed k=$k)") {
      val n = 11 + seed % 6
      val g = GraphGen.uniform(n, (2.4 * n).toInt, seed * 19 + k)
      val s = seed % n; val t = (seed * 5 + 1) % n
      if (s != t) assert(BcDfs.count(g, s, t, k) == bruteCount(g, s, t, k))
    }
    test(s"JOIN count equals brute force (seed=$seed k=$k)") {
      val n = 11 + seed % 6
      val g = GraphGen.uniform(n, (2.4 * n).toInt, seed * 19 + k)
      val s = seed % n; val t = (seed * 5 + 1) % n
      if (s != t) assert(JoinEnum.count(g, s, t, k) == bruteCount(g, s, t, k))
    }
    test(s"PathEnum count equals brute force (seed=$seed k=$k)") {
      val n = 11 + seed % 6
      val g = GraphGen.uniform(n, (2.4 * n).toInt, seed * 19 + k)
      val s = seed % n; val t = (seed * 5 + 1) % n
      if (s != t) assert(PathEnum.count(g, s, t, k) == bruteCount(g, s, t, k))
    }
  }

  // --- SPG via enumeration vs brute force and vs EVE ---

  for (seed <- 0 until 10; k <- Seq(3, 5, 6)) {
    test(s"all SPG generators agree (seed=$seed k=$k)") {
      val g = GraphGen.powerLaw(18, 50, 0.9, seed * 3 + k)
      val s = seed % g.n; val t = (seed * 7 + 2) % g.n
      if (s != t) {
        val exp = BruteForce.spg(g, s, t, k)
        assert(BcDfs.spg(g, s, t, k) == exp, "BC-DFS")
        assert(JoinEnum.spg(g, s, t, k) == exp, "JOIN")
        assert(PathEnum.spg(g, s, t, k) == exp, "PathEnum")
        assert(Eve.spg(g, s, t, k).toSet == exp, "EVE")
      }
    }
  }

  // --- paths delivered by enumeration are valid simple paths ---

  test("BC-DFS emits valid ≤k simple paths on the paper graph") {
    import PaperGraph._
    var n = 0L
    BcDfs.enumerate(graph, s, t, 7) { stack =>
      n += 1
      assert(stack.head == s && stack.last == t)
      assert(stack.toSet.size == stack.length, "repeated vertex")
      assert(stack.length - 1 <= 7)
      stack.sliding(2).foreach(p => assert(graph.hasEdge(p(0), p(1))))
    }
    assert(n == bruteCount(graph, s, t, 7))
  }

  test("JOIN emits valid ≤k simple paths on the paper graph") {
    import PaperGraph._
    var n = 0L
    JoinEnum.enumerate(graph, s, t, 7) { full =>
      n += 1
      assert(full.head == s && full.last == t)
      assert(full.toSet.size == full.length, "repeated vertex")
      assert(full.length - 1 <= 7)
      full.sliding(2).foreach(p => assert(graph.hasEdge(p(0), p(1))))
    }
    assert(n == bruteCount(graph, s, t, 7))
  }

  test("paper graph path census at k=4 matches Figure 1(b) structure") {
    import PaperGraph._
    // The five ≤4-hop s-t simple paths reconstructed in PaperGraph.spg4.
    assert(bruteCount(graph, s, t, 4) == 5)
    assert(BcDfs.count(graph, s, t, 4) == 5)
    assert(JoinEnum.count(graph, s, t, 4) == 5)
    assert(PathEnum.count(graph, s, t, 4) == 5)
  }

  test("unreachable pair: every enumerator returns zero") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (2, 3)))
    assert(BcDfs.count(g, 0, 3, 6) == 0)
    assert(JoinEnum.count(g, 0, 3, 6) == 0)
    assert(PathEnum.count(g, 0, 3, 6) == 0)
  }

  test("direct edge only, k=1: exactly one path") {
    val g = LocalGraph.fromEdges(3, Seq((0, 2), (0, 1), (1, 2)))
    assert(BcDfs.count(g, 0, 2, 1) == 1)
    assert(JoinEnum.count(g, 0, 2, 1) == 1)
    assert(PathEnum.count(g, 0, 2, 1) == 1)
  }

  test("deadline aborts enumeration") {
    val g = GraphGen.uniform(40, 400, 13)
    val expired = System.nanoTime() - 1
    intercept[DeadlineExceeded](BcDfs.count(g, 0, 1, 8, expired))
    intercept[DeadlineExceeded](JoinEnum.count(g, 0, 1, 8, expired))
    intercept[DeadlineExceeded](PathEnum.count(g, 0, 1, 8, expired))
  }

  test("an expired deadline stops a small query in its distance search") {
    // Five paths at k=4: the enumerations end long before their first
    // periodic check, so only the distance searches can throw.
    import PaperGraph._
    val expired = System.nanoTime() - 1
    intercept[DeadlineExceeded](JoinEnum.count(graph, s, t, 4, expired))
    intercept[DeadlineExceeded](BcDfs.count(graph, s, t, 4, expired))
    intercept[DeadlineExceeded](PathEnum.count(graph, s, t, 4, expired))
  }

  test("PathEnum optimizer picks DFS on sparse chains and still counts right") {
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))
    val idx = PathEnum.buildIndex(g, 0, 5, 5)
    assert(!PathEnum.chooseJoin(idx))
    assert(PathEnum.count(g, 0, 5, 5) == 1)
  }

  test("PathEnum index prunes edges outside the distance window") {
    import PaperGraph._
    val cor = PathEnum.buildIndex(graph, s, t, 4).cor
    def outAdj(v: Int): Seq[Int] = cor.graph.outAdj(cor.local(v)).toSeq.map(cor.ids)
    // e(b,j): Δ(s,b)=2, Δ(j,t)=3 -> 2+1+Δ(j,t)=6 > 4, pruned from the index.
    assert(!outAdj(b).contains(j))
    // e(s,c): 0+1+1 <= 4, kept.
    assert(outAdj(s).contains(c))
  }

  test("PathEnum allocates in proportion to the corridor, not to |V| (n = 200,000, k = 3)") {
    val g  = GraphGen.powerLaw(200000, 600000, alpha = 0.9, seed = 31)
    val qs = GraphGen.queries(g, 3, 40, seed = 9)
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    def pass(): Long = {
      val a0 = mx.getCurrentThreadAllocatedBytes
      qs.foreach { case (s, t) => PathEnum.count(g, s, t, 3) }
      mx.getCurrentThreadAllocatedBytes - a0
    }
    pass(); pass() // the thread's scratch and its visit lists at their final size
    val perQuery = pass() / qs.length
    val corridor = qs.map { case (s, t) => PathEnum.buildIndex(g, s, t, 3).cor.ids.length }.max
    // Two n-sized Int arrays alone would be 1,600,000 bytes.
    assert(perQuery < 128 * 1024, s"$perQuery bytes per query; largest corridor $corridor vertices")
  }
}
