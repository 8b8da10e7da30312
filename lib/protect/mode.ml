type t =
  | None_
  | Hw_passthrough
  | Sw_passthrough
  | Strict
  | Strict_plus
  | Defer
  | Defer_plus
  | Riommu_minus
  | Riommu

let all =
  [ None_; Hw_passthrough; Sw_passthrough; Strict; Strict_plus; Defer; Defer_plus;
    Riommu_minus; Riommu ]

let evaluated = [ Strict; Strict_plus; Defer; Defer_plus; Riommu_minus; Riommu; None_ ]

let name = function
  | None_ -> "none"
  | Hw_passthrough -> "hwpt"
  | Sw_passthrough -> "swpt"
  | Strict -> "strict"
  | Strict_plus -> "strict+"
  | Defer -> "defer"
  | Defer_plus -> "defer+"
  | Riommu_minus -> "riommu-"
  | Riommu -> "riommu"

let of_name s = List.find_opt (fun m -> name m = s) all

let uses_fast_allocator = function
  | Strict_plus | Defer_plus -> true
  | None_ | Hw_passthrough | Sw_passthrough | Strict | Defer | Riommu_minus | Riommu ->
      false

let is_deferred = function
  | Defer | Defer_plus -> true
  | None_ | Hw_passthrough | Sw_passthrough | Strict | Strict_plus | Riommu_minus
  | Riommu ->
      false

let is_riommu = function
  | Riommu_minus | Riommu -> true
  | None_ | Hw_passthrough | Sw_passthrough | Strict | Strict_plus | Defer | Defer_plus
    ->
      false

let coherent_walk = function
  | Riommu -> true
  | None_ | Hw_passthrough | Sw_passthrough | Strict | Strict_plus | Defer | Defer_plus
  | Riommu_minus ->
      false
