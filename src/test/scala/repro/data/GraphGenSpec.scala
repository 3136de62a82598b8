package repro.data

import repro.SparkSpec
import repro.core.Bfs

class GraphGenSpec extends SparkSpec {

  test("uniform generator is deterministic in the seed") {
    val a = GraphGen.uniform(50, 150, 7)
    val b = GraphGen.uniform(50, 150, 7)
    assert(a.edges.toSeq == b.edges.toSeq)
    val c = GraphGen.uniform(50, 150, 8)
    assert(a.edges.toSet != c.edges.toSet)
  }

  test("uniform generator hits the requested edge count") {
    val g = GraphGen.uniform(100, 400, 1)
    assert(g.m == 400)
    assert(g.edges.forall { case (u, v) => u != v })
  }

  test("power-law generator is deterministic and self-loop free") {
    val a = GraphGen.powerLaw(200, 800, 0.9, 3)
    val b = GraphGen.powerLaw(200, 800, 0.9, 3)
    assert(a.edges.toSeq == b.edges.toSeq)
    assert(a.edges.forall { case (u, v) => u != v })
    assert(a.m >= 700, s"got ${a.m} edges") // dedup may shave a few
  }

  test("power-law degrees are heavy-tailed vs uniform") {
    val pl = GraphGen.powerLaw(500, 2500, 0.9, 11)
    val un = GraphGen.uniform(500, 2500, 11)
    assert(pl.maxDeg > un.maxDeg, s"power-law max ${pl.maxDeg} vs uniform ${un.maxDeg}")
  }

  for (spec <- GraphGen.datasets) {
    test(s"dataset ${spec.name} builds at its declared size") {
      val g = spec.build()
      assert(g.n == spec.n)
      assert(g.m > 0.8 * spec.m, s"|E|=${g.m} far below target ${spec.m}")
      assert(g.m <= spec.m)
    }
  }

  test("dataset lookup by name, unknown rejected") {
    assert(GraphGen.dataset("ps").original == "econ-psmigr3")
    intercept[RuntimeException](GraphGen.dataset("nope"))
  }

  test("dataset density ordering preserves the paper's dense-vs-sparse split") {
    def davg(n: String) = GraphGen.dataset(n).build().avgDeg
    assert(davg("ps") > davg("tw"))
    assert(davg("hm") > davg("wt"))
    assert(davg("uk") > davg("gg"))
  }

  for (k <- Seq(3, 6)) {
    test(s"queries are k-hop reachable pairs (k=$k)") {
      val g = GraphGen.dataset("ye").build()
      val qs = GraphGen.queries(g, k, 15, seed = 5)
      assert(qs.size == 15)
      for ((s, t) <- qs) {
        assert(s != t)
        val d = Bfs.bounded(g.outOff, g.outDst, s, k)
        assert(d(t) <= k, s"($s,$t) not reachable within $k")
      }
    }
  }

  test("query generation is deterministic in the seed") {
    val g = GraphGen.dataset("tw").build()
    assert(GraphGen.queries(g, 4, 10, 9) == GraphGen.queries(g, 4, 10, 9))
  }
}
