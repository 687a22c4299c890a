package perfbench

/** Every metric the benchmark prints, with its unit. BENCHMARK.json lists
  * the same names; a test keeps the two in step.
  */
object Metrics {

  /** Reported with tracing off. */
  val endToEnd: Seq[(String, String)] = Seq(
    "run_s" -> "s",
    "setup_s" -> "s",
    "extra_heap_mb" -> "MB",
  )

  /** Reported by the traced run. A layer a workload does not call reports 0
    * (README.md maps each metric to the workloads it applies to).
    */
  val perLayer: Seq[(String, String)] = Seq(
    "spatial.gen_s" -> "s",
    "core.point_index.build_s" -> "s",
    "core.point_index.nodes" -> "count",
    "core.point_index.depth" -> "count",
    "core.point_index.leaf_fill" -> "points/leaf",
    "core.point_index.alloc_mb" -> "MB",
    "core.centroid_index.build_s" -> "s",
    "core.centroid_index.alloc_mb" -> "MB",
    "core.inter_bounds.s" -> "s",
    "core.inter_bounds.dist" -> "count",
    "core.assign.s" -> "s",
    "core.assign.dist" -> "count",
    "core.assign.dist_per_point_iter" -> "count",
    "core.assign.pruned_frac" -> "ratio",
    "core.assign.alloc_mb" -> "MB",
    "core.kernel.gflop" -> "GFLOP",
    "core.kernel.gbytes" -> "GB",
    "core.kernel.flop_per_byte" -> "flop/B",
    "core.kernel.gflop_per_s" -> "GFLOP/s",
    "core.refine.s" -> "s",
    "estimator.leaf_capacity" -> "count",
    "estimator.mem_est_ratio" -> "ratio",
    "spark.fit_s" -> "s",
    "spark.assignments_s" -> "s",
    "spark.cleanup_s" -> "s",
    "spark.jobs" -> "count",
    "spark.tasks" -> "count",
    "spark.task_run_s" -> "s",
    "spark.task_skew" -> "ratio",
    "spark.sched_overhead_s" -> "s",
    "spark.result_mb" -> "MB",
    "spark.shuffle_write_mb" -> "MB",
    "spark.broadcast_mb" -> "MB",
    "spark.pruned_frac" -> "ratio",
    "trace.unattributed_s" -> "s",
    "trace.overhead_frac" -> "ratio",
    "baseline.lloyd_s" -> "s",
  )

  def expected(trace: Boolean): Seq[(String, String)] = if (trace) perLayer else endToEnd

  /** The result line: one JSON object, metrics in declaration order. Fails
    * when `values` does not hold exactly the expected names.
    */
  def resultLine(correct: Boolean, attempted: Int, failed: Int, trace: Boolean, values: Map[String, Double]): String = {
    val names = expected(trace)
    val missing = names.map(_._1).filterNot(values.contains)
    val extra = values.keySet -- names.map(_._1)
    require(missing.isEmpty && extra.isEmpty, s"metric set mismatch: missing=$missing unexpected=$extra")
    val ms = names.map { case (n, unit) =>
      val v = values(n)
      require(!v.isNaN && !v.isInfinite, s"metric $n is not finite: $v")
      s""""$n": {"value": ${java.lang.Double.toString(v)}, "unit": "$unit"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
