package repro.core

import repro.SparkSpec

class LocalGraphSpec extends SparkSpec {

  test("fromEdges deduplicates parallel edges") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (0, 1), (1, 2)))
    assert(g.m == 2)
    assert(g.outAdj(0).toSeq == Seq(1))
  }

  test("fromEdges drops self-loops") {
    val g = LocalGraph.fromEdges(3, Seq((0, 0), (0, 1), (2, 2)))
    assert(g.m == 1)
    assert(g.edges.toSeq == Seq((0, 1)))
  }

  test("fromEdges rejects out-of-range endpoints") {
    intercept[IllegalArgumentException](LocalGraph.fromEdges(2, Seq((0, 5))))
  }

  test("adjacency is sorted both ways") {
    val g = LocalGraph.fromEdges(5, Seq((0, 4), (0, 2), (0, 3), (4, 1), (2, 1), (3, 1)))
    assert(g.outAdj(0).toSeq == Seq(2, 3, 4))
    assert(g.inAdj(1).toSeq == Seq(2, 3, 4))
  }

  test("reverse swaps adjacency") {
    val g = PaperGraph.graph
    val r = g.reverse
    assert(r.outAdj(PaperGraph.t).toSeq == g.inAdj(PaperGraph.t).toSeq)
    assert(r.m == g.m)
    assert(r.reverse.edges.toSet == g.edges.toSet)
  }

  test("degrees and counts on the paper graph") {
    val g = PaperGraph.graph
    assert(g.n == 8)
    assert(g.m == 14)
    assert(g.outDeg(PaperGraph.a) == 3)
    assert(g.inDeg(PaperGraph.b) == 2)
    assert(g.maxDeg == 3)
    assert(math.abs(g.avgDeg - 14.0 / 8) < 1e-9)
  }

  test("hasEdge agrees with the edge list") {
    val g = PaperGraph.graph
    for (u <- 0 until g.n; v <- 0 until g.n)
      assert(g.hasEdge(u, v) == PaperGraph.edges.contains((u, v)), s"($u,$v)")
  }

  test("encodedEdges round-trips through enc/src/dst") {
    val g = PaperGraph.graph
    val decoded = g.encodedEdges.map(e => (LocalGraph.src(e), LocalGraph.dst(e))).toSet
    assert(decoded == PaperGraph.edges.toSet)
  }

  // Seed 0 has no vertex, seed 1 one; from seed 2 on, vertices at or above
  // `hi` get no edge, and random endpoints add duplicates and self-loops.
  for (seed <- 0 until 24) {
    test(s"CSR equals the sorted edge list (seed=$seed)") {
      val rnd = new scala.util.Random(seed)
      val n   = if (seed < 2) seed else 2 + rnd.nextInt(30)
      val hi  = math.max(1, n - seed % 3)
      val raw = if (n == 0) Seq.empty else Seq.fill(rnd.nextInt(4 * n + 1))((rnd.nextInt(hi), rnd.nextInt(hi)))
      val want = raw.filter { case (u, v) => u != v }.distinct.sorted
      val enc  = want.map { case (u, v) => LocalGraph.enc(u, v) }
      val g    = LocalGraph.fromEdges(n, raw)
      assert(g.n == n && g.m == want.length)
      assert(g.encodedEdges.toSeq == enc && g.edges.toSeq == want)
      val shuffled = rnd.shuffle(raw.filter { case (u, v) => u != v }.map { case (u, v) => LocalGraph.enc(u, v) })
      assert(LocalGraph.fromEncodedEdges(n, shuffled.toArray).encodedEdges.toSeq == enc)
      for (v <- 0 until n) {
        assert(g.outAdj(v).toSeq == want.collect { case (`v`, w) => w }, s"out($v)")
        assert(g.inAdj(v).toSeq == want.collect { case (u, `v`) => u }.sorted, s"in($v)")
        assert(g.outDeg(v) == g.outAdj(v).length && g.inDeg(v) == g.inAdj(v).length, s"deg($v)")
      }
      val r = g.reverse
      assert(r.n == n && r.m == g.m)
      assert(r.encodedEdges.toSeq == want.map(_.swap).sorted.map { case (u, v) => LocalGraph.enc(u, v) })
      assert(r.reverse.encodedEdges.toSeq == enc)
      for (u <- -1 to n; v <- 0 until n) assert(g.hasEdge(u, v) == want.contains((u, v)), s"($u,$v)")
      val degrees = (0 until n).flatMap(v => Seq(want.count(_._1 == v), want.count(_._2 == v)))
      assert(g.maxDeg == (0 +: degrees).max)
    }
  }

  test("the web-Google stand-in costs no more than its four CSR arrays") {
    // 25,000 vertices and 100,000 edges: 4·(2(n+1)+2m) bytes is 1.0 MB,
    // where one array per vertex and direction took 1.85 MB.
    val g   = repro.data.GraphGen.dataset("gg").build()
    val csr = 4.0 * (2 * (g.n + 1) + 2 * g.m)
    val est = org.apache.spark.util.SizeEstimator.estimate(g)
    assert(g.n == 25000 && g.m == 100000)
    assert(est <= 1.1 * csr, s"SizeEstimator: $est bytes, CSR arrays: $csr")
  }

  test("enc/src/dst round-trip on extreme ids") {
    for ((u, v) <- Seq((0, 0), (1, Int.MaxValue), (Int.MaxValue, 7), (123456789, 987654321))) {
      val e = LocalGraph.enc(u, v)
      assert(LocalGraph.src(e) == u && LocalGraph.dst(e) == v)
    }
  }

  test("VSet.intersect over sorted arrays") {
    assert(PlainVSet.intersect(Array(1, 3, 5), Array(2, 3, 5, 7)).toSeq == Seq(3, 5))
    assert(PlainVSet.intersect(Array(1, 2), Array(3, 4)).toSeq == Seq.empty)
    assert(PlainVSet.intersect(Array.emptyIntArray, Array(1)).toSeq == Seq.empty)
  }

  test("VSet.add keeps order and avoids duplicates") {
    assert(VSet.add(Array(1, 3), 2).toSeq == Seq(1, 2, 3))
    assert(VSet.add(Array(1, 3), 0).toSeq == Seq(0, 1, 3))
    assert(VSet.add(Array(1, 3), 4).toSeq == Seq(1, 3, 4))
    val a = Array(1, 3)
    assert(VSet.add(a, 3) eq a)
  }

  test("VSet.disjoint and contains") {
    assert(VSet.disjoint(Array(1, 4), Array(2, 3, 5)))
    assert(!VSet.disjoint(Array(1, 4), Array(4)))
    assert(VSet.contains(Array(1, 4, 9), 9))
    assert(!VSet.contains(Array(1, 4, 9), 5))
  }

  test("VSet.keepIn is a ∩ (b ∪ {y}) and returns a itself when nothing is dropped") {
    assert(VSet.keepIn(Array(1, 3, 5), Array(3, 7), 5).toSeq == Seq(3, 5))
    val a = Array(2, 4)
    assert(VSet.keepIn(a, Array(1, 4), 2) eq a)
    assert(VSet.keepIn(a, Array.emptyIntArray, 9).isEmpty)
  }

  test("VSet.keepIn property: equals intersect(a, add(b, y)), by reference when unchanged") {
    import org.scalacheck.{Gen, Prop, Test}
    val set  = Gen.containerOf[Set, Int](Gen.choose(0, 12)).map(_.toArray.sorted)
    // a drawn from b ∪ {y} half the time, so the nothing-dropped case is common.
    val args = for {
      b <- set; y <- Gen.choose(0, 12)
      a <- Gen.oneOf(set, Gen.someOf(b.toSeq :+ y).map(_.distinct.toArray.sorted))
    } yield (a, b, y)
    val prop = Prop.forAll(args) { case (a, b, y) =>
      val r = VSet.keepIn(a, b, y)
      r.sameElements(PlainVSet.intersect(a, VSet.add(b, y))) && ((r eq a) == (r.length == a.length))
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(2000), prop)
    assert(res.passed, res.status)
  }
}
