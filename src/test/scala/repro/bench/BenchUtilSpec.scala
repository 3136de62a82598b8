package repro.bench

import org.scalatest.funsuite.AnyFunSuite

class BenchUtilSpec extends AnyFunSuite {

  test("REPRO_QUERIES defaults to 12 and must be an integer >= 1") {
    assert(BenchUtil.queriesPerPoint(None) == 12)
    assert(BenchUtil.queriesPerPoint(Some("25")) == 25)
    for (bad <- Seq("0", "-3", "ten", "")) {
      val e = intercept[IllegalArgumentException](BenchUtil.queriesPerPoint(Some(bad)))
      assert(e.getMessage.contains("REPRO_QUERIES"), bad)
    }
  }

  test("REPRO_TIMEOUT_MS defaults to 2000 and must be an integer >= 1") {
    assert(BenchUtil.timeoutMs(None) == 2000L)
    assert(BenchUtil.timeoutMs(Some("500")) == 500L)
    assert(BenchUtil.timeoutMs(Some("1")) == 1L)
    for (bad <- Seq("0", "-5", "2s", "")) {
      val e = intercept[IllegalArgumentException](BenchUtil.timeoutMs(Some(bad)))
      assert(e.getMessage.contains("REPRO_TIMEOUT_MS"), bad)
    }
  }
}
