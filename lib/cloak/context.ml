type view = App | Sys

type t = { asid : int; view : view }

let app asid = { asid; view = App }
let sys asid = { asid; view = Sys }
let equal a b = a.asid = b.asid && a.view = b.view

