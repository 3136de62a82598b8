package repro.bench

/** Shared knobs and formatting for the per-table benchmark harnesses.
  *
  * Scale is controlled by environment variables so the same code serves CI
  * smoke runs and fuller sweeps:
  *   - REPRO_QUERIES     queries per (dataset, k) point   (default 12)
  *   - REPRO_TIMEOUT_MS  per-query deadline, reported INF (default 2000)
  *   - REPRO_FULL        1 = the paper's full dataset lists (default 0)
  */
object BenchUtil {

  def queriesPerPoint: Int = queriesPerPoint(sys.env.get("REPRO_QUERIES"))

  /** The value of REPRO_QUERIES, if set, as a count of at least 1. */
  private[bench] def queriesPerPoint(value: Option[String]): Int =
    value.fold(12) { v =>
      val n = v.trim.toIntOption.getOrElse(0)
      require(n >= 1, s"REPRO_QUERIES must be an integer >= 1, got '$v'")
      n
    }

  def timeoutMs: Long = timeoutMs(sys.env.get("REPRO_TIMEOUT_MS"))

  /** The value of REPRO_TIMEOUT_MS, if set, as a deadline of at least 1 ms. */
  private[bench] def timeoutMs(value: Option[String]): Long =
    value.fold(2000L) { v =>
      val ms = v.trim.toLongOption.getOrElse(0L)
      require(ms >= 1, s"REPRO_TIMEOUT_MS must be an integer >= 1, got '$v'")
      ms
    }

  def full: Boolean = full(sys.env.get("REPRO_FULL"))

  /** The value of REPRO_FULL, if set: `1` = the full dataset lists, `0` the short ones. */
  private[bench] def full(value: Option[String]): Boolean = {
    require(value.forall(v => v == "0" || v == "1"), s"REPRO_FULL must be 0 or 1, got '${value.get}'")
    value.contains("1")
  }

  def fmtMs(ms: Double): String =
    if (ms < 0) "INF"
    else if (ms >= 1000) f"${ms / 1000}%.2fs"
    else f"$ms%.1fms"

  def fmtRatio(r: Double): String =
    if (r.isNaN || r.isInfinite || r < 0) "-" else if (r < 0.1) f"$r%.2f" else f"$r%.1f"

  /** GitHub-flavoured markdown table. */
  def markdown(headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val sb = new StringBuilder
    sb.append("| ").append(headers.mkString(" | ")).append(" |\n")
    sb.append("|").append(headers.map(_ => "---").mkString("|")).append("|\n")
    rows.foreach(r => sb.append("| ").append(r.mkString(" | ")).append(" |\n"))
    sb.toString
  }
}
